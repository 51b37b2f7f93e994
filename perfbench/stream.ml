(* stream: a child [iceberg_cli serve --synth basket] at 30k rows.  One
   session repeats a cycle: append a burst of fresh baskets (~0.1% of the
   table), query the pinned frequent-pairs iceberg query (served from the
   maintained result cache), then query it again with no append between
   (a plain repeat).  Writes beside reads: the delta-block append, the
   [Core.Delta] fold and result-cache maintenance are all on the clock. *)

let rows = 30_000
let burst_baskets = 6  (* 5 items each: 30 rows, 0.1% of the table *)
let check_every = 50

(* The pinned query: frequent item pairs, the paper's canonical
   market-basket iceberg join, at the threshold of the bench's own stream
   target. *)
let sql =
  "SELECT i1.item, i2.item, COUNT(*) FROM basket i1, basket i2 WHERE i1.bid \
   = i2.bid AND i1.item < i2.item GROUP BY i1.item, i2.item HAVING \
   COUNT(*) >= 20"

let start_server () =
  Child.start
    ~sock:(Common.out_path (Printf.sprintf "stream-%d.sock" (Unix.getpid ())))
    ~log:(Common.out_path "stream.log")
    ~sessions:2
    [ "--synth"; "basket"; "--rows"; string_of_int rows ]

type conns = { main : Serve.Client.t; bypass : Serve.Client.t }

let setup () =
  let srv = start_server () in
  let main = Child.conn srv 0 and bypass = Child.conn srv 1 in
  ignore
    (Serve.Client.set bypass
       [ ("result_cache", Obs.Json.Bool false); ("plan_cache", Obs.Json.Bool false) ]);
  (* warm-up: cache the result and build its partial state *)
  ignore (Serve.Client.query main sql);
  (srv, { main; bypass })

(* A burst of fresh baskets: ids beyond the generator's range, five
   distinct items each, drawn from the generator's own item popularity
   (Zipf, s = 1.1, over 200 items).  New counts then land mostly on pairs
   already above the threshold, so the pinned result keeps its size over a
   run and the latencies do not drift with the number of cycles run. *)
let next_bid = ref 1_000_000

let burst item =
  List.concat
    (List.init burst_baskets (fun _ ->
         incr next_bid;
         let bid = !next_bid in
         let rec pick acc =
           if List.length acc = 5 then acc
           else
             let i = item () in
             pick (if List.mem i acc then acc else i :: acc)
         in
         List.map
           (fun i ->
             Obs.Json.Arr
               [ Obs.Json.Num (float_of_int bid); Obs.Json.Str (Printf.sprintf "item%04d" i) ])
           (pick [])))

type phase = {
  primary : float list;
  repeat : float list;
  append : float list;
  ops : int;
  wall : float;  (* timed wall time, answer checks excluded *)
  failed : int;
  checked : int;
  wrong : int;
  cycles : int;
  rounds : Common.rounds;
}

let phase ~tracer:cycle_tracer ~seconds ~rng ~conns =
  let primary = ref [] and repeat = ref [] and append = ref [] in
  let ops = ref 0 and failed = ref 0 and checked = ref 0 and wrong = ref 0 in
  let paused = ref 0. in
  let t0 = Common.now () in
  let cycle = ref 0 and rounds = Common.rounds () in
  let compare_with_recompute resp =
    let t = Common.now () in
    incr checked;
    (match
       Core.Runner.same_result
         (Serve.Client.relation_of_response (Serve.Client.query conns.bypass sql))
         (Serve.Client.relation_of_response resp)
     with
     | true -> ()
     | false ->
       incr wrong;
       Printf.eprintf "stream: WRONG ANSWER after cycle %d\n%!" !cycle
     | exception e ->
       incr wrong;
       Printf.eprintf "stream: recompute failed: %s\n%!" (Printexc.to_string e));
    paused := !paused +. (Common.now () -. t)
  in
  let timed_op tracer op name f =
    match Common.timed (fun () -> Trace.span tracer ~op name (fun _ -> f ())) with
    | r, ms ->
      incr ops;
      Some (r, ms)
    | exception e ->
      incr failed;
      Printf.eprintf "stream: %s failed: %s\n%!" name (Printexc.to_string e);
      None
  in
  let last = ref None in
  let item = Workload.Prng.zipf_sampler rng ~n:200 ~s:1.1 in
  while Common.now () -. !paused < t0 +. seconds do
    incr cycle;
    let op = !cycle in
    let tracer = Common.round_tracer cycle_tracer op in
    let rows_j = burst item in
    let cycle_ms = ref 0. in
    let timed_op name f =
      let r = timed_op tracer op name f in
      Option.iter (fun (_, ms) -> cycle_ms := !cycle_ms +. ms) r;
      r
    in
    (match timed_op "client.append" (fun () -> Serve.Client.append conns.main "basket" rows_j) with
     | Some (_, ms) -> append := ms :: !append
     | None -> ());
    (match timed_op "client.query" (fun () -> Serve.Client.query conns.main sql) with
     | Some (resp, ms) ->
       primary := ms :: !primary;
       last := Some resp;
       if op mod check_every = 0 then compare_with_recompute resp
     | None -> ());
    (match timed_op "client.query_repeat" (fun () -> Serve.Client.query conns.main sql) with
     | Some (_, ms) -> repeat := ms :: !repeat
     | None -> ());
    Common.record_round rounds tracer !cycle_ms
  done;
  let wall = Common.now () -. t0 -. !paused in
  (* the final maintained result, always *)
  Option.iter compare_with_recompute !last;
  {
    primary = !primary;
    repeat = !repeat;
    append = !append;
    ops = !ops;
    wall;
    failed = !failed;
    checked = !checked;
    wrong = !wrong;
    cycles = !cycle;
    rounds;
  }

let layers_of ~ph ~m0 ~m1 ~s0 ~s1 =
  let counted, ratio_notes = Common.server_counter_layers m0 m1 in
  let n_maint, _, p50, p95 = Common.server_hist m1 "serve.maint_ms" in
  let maint j k =
    match Option.bind (Obs.Json.member "maintenance" j) (Obs.Json.member k) with
    | Some (Obs.Json.Num x) -> x
    | _ -> 0.
  in
  let md k = maint s1 k -. maint s0 k in
  let outcomes = md "incremental" +. md "revalidated" +. md "recompute" in
  let r_inc = Bstats.ratio ~base:"serve.maint_outcomes" (md "incremental") outcomes in
  let hist = Common.server_hist_mean m0 m1 in
  ( [ ("serve.maint_p50_ms", p50, "ms");
      ("serve.maint_p95_ms", p95, "ms");
      Common.ratio_metric "delta.incremental_ratio" r_inc;
      ("serve.maint_outcomes", outcomes, "count");
      ("serve.queue_wait_ms", hist "serve.queue_wait_ms", "ms");
      ("serve.query_ms", hist "serve.query_ms", "ms");
      ("serve.result_cache_evictions", Common.evictions s1 -. Common.evictions s0, "count");
      Common.overhead_layer ph.rounds ]
    @ counted,
    Common.ratio_note "delta.incremental_ratio" r_inc
    :: Printf.sprintf
         "serve.maint_ms p50/p95 are the server histogram's power-of-two bucket \
          estimates over its %g folds"
         n_maint
    :: ratio_notes )

let run ~seed ~seconds ~trace =
  let rng = Workload.Prng.create seed in
  let (srv, conns), setups_s =
    Common.repeat_setup ~discard:(fun (srv, _) -> Child.stop srv) setup
  in
  let tracer = if trace then Some (Trace.create ()) else None in
  let warm, ph, rss_mb, layers, notes =
    Fun.protect
      ~finally:(fun () -> Child.stop srv)
      (fun () ->
        let warm = phase ~tracer:None ~seconds:Common.warmup_s ~rng ~conns in
        let m0 = Serve.Client.metrics conns.bypass and s0 = Serve.Client.stats conns.bypass in
        let ph = phase ~tracer ~seconds ~rng ~conns in
        let rss_mb = Option.value (Child.peak_rss_mb srv) ~default:0. in
        match tracer with
        | None -> (warm, ph, rss_mb, [], [])
        | Some tr ->
          let m1 = Serve.Client.metrics conns.bypass and s1 = Serve.Client.stats conns.bypass in
          Trace.dump tr (Common.out_path (Printf.sprintf "stream-%d.spans.json" seed));
          let layers, notes = layers_of ~ph ~m0 ~m1 ~s0 ~s1 in
          (warm, ph, rss_mb, layers, notes))
  in
  {
    Common.rows;
    cache_cap = "serve defaults: plan cache 64, result cache 128 entries";
    setups_s;
    primary_ms = ph.primary;
    repeat_ms = ph.repeat;
    append_ms = ph.append;
    ops = ph.ops;
    wall_s = ph.wall;
    attempted = ph.ops + ph.failed + warm.failed + warm.wrong;
    failed = ph.failed + ph.wrong + warm.failed + warm.wrong;
    checked = ph.checked + warm.checked;
    rss_mb;
    tail_cap = 90.;
    repeat_tail_cap = 90.;
    layers;
    notes = Printf.sprintf "cycles %d, %d rows appended" ph.cycles (ph.cycles * burst_baskets * 5) :: notes;
  }
