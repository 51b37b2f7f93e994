(* serve_mixed: a child [iceberg_cli serve --synth baseball] with its
   shipped defaults (both layouts, pool 2, maintenance on), driven over a
   Unix socket.  About 80% of queries come from a Zipf-skewed hot set of
   16 texts (result-cache hits once warm), about 20% are never-seen
   thresholds (plan + execute + the response-path [Delta.init]).
   Latencies are timed at the client, socket to socket. *)

open Relalg

let rows = 1000
(* One query session.  With two, a CTE query (which takes the server's
   catalog write lock, even on a cache hit) waits for whatever long read
   the other session is in, and the fresh median and the repeat tail then
   follow that interleaving from run to run rather than the code. *)
let sessions = 1
let fresh_every = 5  (* one fresh query per five *)

(* Fresh templates: every template once and the cheap Q8 twice more, so
   the median of the fresh latencies falls inside the ~20 ms pairs /
   complex_filtered group rather than at its upper edge.  The tail is the
   p95, inside the slowest of the three skybands that hold the top quarter
   (the p90 would fall between two of them). *)
let fresh_pool = Templates.find "Q8" :: Templates.find "Q8" :: Templates.all

type hot = { h_tmpl : Templates.t; h_sql : string }

let sock () = Common.out_path (Printf.sprintf "mixed-%d.sock" (Unix.getpid ()))

(* Session 0 is the control session (metrics, shutdown); 1..[sessions]
   issue the queries. *)
let start_server () =
  Child.start ~sock:(sock ())
    ~log:(Common.out_path "serve_mixed.log")
    ~sessions:(sessions + 1)
    [ "--synth"; "baseball"; "--rows"; string_of_int rows ]

(* The hot set, in Zipf rank order: every template at the paper's
   threshold, then six extra instances at thresholds drawn from the seed.
   The rank of each template is fixed (CTE texts alternate with the
   rest), so every seed puts the same traffic share on each template and
   the repeat latencies compare across seeds; the seed drives the extras'
   thresholds and the order of the draws. *)
let ranks =
  [ "Q1"; "Q4"; "complex_filtered"; "Q5"; "Q2"; "Q6"; "complex"; "Q7"; "Q3"; "Q8";
    "Q1"; "Q4"; "complex_filtered"; "Q5"; "Q8"; "Q6" ]

let hot_set fresh =
  let seen = Hashtbl.create 16 in
  List.map
    (fun n ->
      let t = Templates.find n in
      let first = not (Hashtbl.mem seen n) in
      Hashtbl.replace seen n ();
      { h_tmpl = t; h_sql = (if first then Templates.paper_sql fresh t else Templates.draw fresh t) })
    ranks

(* Issue every hot text once, split over the query sessions, so the timed
   loop starts with a warm result cache. *)
let warm_hot srv hot =
  let ths =
    List.init sessions (fun si ->
        Thread.create
          (fun () ->
            let cl = Child.conn srv (si + 1) in
            List.iteri
              (fun i h -> if i mod sessions = si then ignore (Serve.Client.query cl h.h_sql))
              hot)
          ())
  in
  List.iter Thread.join ths

let setup rng =
  let srv = start_server () in
  let fresh = Templates.fresh_gen rng in
  let hot = hot_set fresh in
  warm_hot srv hot;
  (srv, fresh, hot)

type sample = {
  s_sql : string;
  s_tmpl : Templates.t;
  s_fresh : bool;
  s_ms : float;  (* client-timed *)
  s_server_ms : float;  (* response [ms] *)
  s_cached : bool;
  s_rel : Relation.t option;  (* first response per distinct text *)
}

type phase = {
  samples : sample list;
  ops : int;
  wall : float;
  failed : int;
  rounds : Common.rounds;
}

let phase ~tracer:op_tracer ~seconds ~rng ~srv ~fresh ~hot =
  let hot_arr = Array.of_list hot in
  let zipf = Workload.Prng.zipf_sampler rng ~n:(Array.length hot_arr) ~s:1.0 in
  let next_tmpl = Common.balanced rng fresh_pool in
  (* Every fifth op of a session is fresh, so the fresh share is exact; the
     fresh templates come from one balanced stream and the hot texts from
     the Zipf draw, both under one PRNG. *)
  let mu = Mutex.create () in
  let draw k =
    Mutex.lock mu;
    let r =
      if k mod fresh_every = 0 then
        let t = next_tmpl () in
        (t, Templates.draw fresh t, true)
      else
        let h = hot_arr.(zipf () - 1) in
        (h.h_tmpl, h.h_sql, false)
    in
    Mutex.unlock mu;
    r
  in
  let seen = Hashtbl.create 64 in
  let samples = ref [] and failed = ref 0 and ops = ref 0 and op_id = ref 0 in
  let rounds = Common.rounds () in
  let t0 = Common.now () in
  let deadline = t0 +. seconds in
  let session cl =
    let k = ref 0 in
    while Common.now () < deadline do
      incr k;
      let tracer = Common.round_tracer op_tracer !k in
      let tmpl, sql, is_fresh = draw !k in
      Mutex.lock mu;
      incr op_id;
      let op = !op_id in
      Mutex.unlock mu;
      match
        Common.timed (fun () ->
            Trace.span tracer ~op "client.query" (fun _ -> Serve.Client.query cl sql))
      with
      | resp, ms ->
        Mutex.lock mu;
        incr ops;
        let first = not (Hashtbl.mem seen sql) in
        if first then Hashtbl.replace seen sql ();
        Mutex.unlock mu;
        let s =
          {
            s_sql = sql;
            s_tmpl = tmpl;
            s_fresh = is_fresh;
            s_ms = ms;
            s_server_ms = Serve.Client.ms resp;
            s_cached = Serve.Client.cached resp;
            s_rel = (if first then Some (Serve.Client.relation_of_response resp) else None);
          }
        in
        Mutex.lock mu;
        samples := s :: !samples;
        (* overhead from the hits alone: one fresh op costs 1-200 ms by
           template and would drown a per-call tracing cost *)
        if not is_fresh then Common.record_round rounds tracer ms;
        Mutex.unlock mu
      | exception e ->
        Mutex.lock mu;
        incr failed;
        Mutex.unlock mu;
        Printf.eprintf "serve_mixed: query failed: %s\n%!" (Printexc.to_string e)
    done
  in
  let ths = List.init sessions (fun si -> Thread.create session (Child.conn srv (si + 1))) in
  List.iter Thread.join ths;
  { samples = !samples; ops = !ops; wall = Common.now () -. t0; failed = !failed; rounds }

(* The in-process reference catalog: the same generator and data seed as
   [serve --synth baseball]. *)
let reference_catalog () =
  let catalog = Catalog.create () in
  ignore (Workload.Baseball.register catalog ~rows ~seed:2017);
  ignore (Workload.Baseball.register_unpivoted catalog ~rows ~seed:2017);
  Workload.Baseball.build_indexes catalog;
  catalog

(* Every distinct response against the in-process [Runner.run] answer.
   With [timings], also time parse, [Runner.prepare] and [Delta.init] of
   the fresh texts in process.  Returns (checked, wrong, parse ms,
   prepare ms, per-text Delta.init ms). *)
let check ~timings samples =
  let catalog = reference_catalog () in
  let n = ref 0 and bad = ref 0 and parse = ref [] and prepare = ref [] in
  let delta = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match s.s_rel with
      | None -> ()
      | Some got ->
        incr n;
        let q, pms = Common.timed (fun () -> Sqlfront.Parser.parse s.s_sql) in
        parse := pms :: !parse;
        let want, _ = Core.Runner.run catalog q in
        if not (Core.Runner.same_result want got) then begin
          incr bad;
          Printf.eprintf "serve_mixed: WRONG ANSWER for %s\n%!" s.s_sql
        end;
        if timings && s.s_fresh then begin
          let plan, ms = Common.timed (fun () -> Core.Runner.prepare catalog q) in
          (* a direct (CTE) plan defers all planning to execution *)
          if Core.Runner.prepared_kind plan <> `Direct then prepare := ms :: !prepare;
          if Core.Delta.supported catalog q then begin
            let _, ms = Common.timed (fun () -> Core.Delta.init catalog q) in
            Hashtbl.replace delta s.s_sql ms
          end
        end)
    samples;
  (!n, !bad, !parse, !prepare, delta)

let layers_of ~ph ~m0 ~m1 ~s0 ~s1 ~parse ~prepare ~delta =
  let hist = Common.server_hist_mean m0 m1 in
  let med xs = if xs = [] then 0. else Bstats.median xs in
  let queue_wait = hist "serve.queue_wait_ms" in
  let misses = List.filter (fun s -> s.s_fresh && not s.s_cached) ph.samples in
  let unreported s = s.s_ms -. s.s_server_ms -. queue_wait in
  let server_ms ~cte =
    List.filter_map
      (fun s -> if s.s_tmpl.Templates.cte = cte then Some s.s_server_ms else None)
      misses
  in
  let counted, ratio_notes = Common.server_counter_layers m0 m1 in
  let delta_ms = Hashtbl.fold (fun _ v acc -> v :: acc) delta [] in
  let layers =
    [ ("sqlfront.parse_ms", med parse, "ms");
      ("optimizer.prepare_ms", med prepare, "ms");
      ("nljp.execute_ms", med (server_ms ~cte:false), "ms");
      ("runner.direct_ms", med (server_ms ~cte:true), "ms");
      ("delta.init_ms", med delta_ms, "ms");
      ("serve.queue_wait_ms", queue_wait, "ms");
      ("serve.query_ms", hist "serve.query_ms", "ms");
      ("serve.unreported_ms", med (List.map unreported misses), "ms");
      ("serve.result_cache_evictions", Common.evictions s1 -. Common.evictions s0, "count");
      Common.overhead_layer ph.rounds ]
    @ counted
  in
  (* Fresh-query time per template: where the client-timed latency goes. *)
  let per_tmpl =
    List.filter_map
      (fun (t : Templates.t) ->
        let xs = List.filter (fun s -> s.s_tmpl == t) misses in
        if xs = [] then None
        else
          let client = med (List.map (fun s -> s.s_ms) xs) in
          let server = med (List.map (fun s -> s.s_server_ms) xs) in
          let unrep = med (List.map unreported xs) in
          let init = med (List.filter_map (fun s -> Hashtbl.find_opt delta s.s_sql) xs) in
          Some
            (Printf.sprintf
               "fresh %-16s n=%-3d client %8.1fms = %s %7.1fms + queue_wait %5.1fms \
                + unreported %7.1fms; in-process delta.init %7.1fms (%s)"
               t.Templates.name (List.length xs) client
               (if t.Templates.cte then "runner.direct" else "nljp.execute ")
               server queue_wait unrep init
               (if init = 0. then "no delta state: query has no delta rule"
                else if Float.abs (init -. unrep) <= 0.25 *. Float.max init unrep then
                  "accounts for the unreported part"
                else "does not account for it")))
      Templates.all
  in
  (layers, ratio_notes @ per_tmpl)

let run ~seed ~seconds ~trace =
  let rng = ref (Workload.Prng.create seed) in
  let (srv, fresh, hot), setups_s =
    Common.repeat_setup
      ~discard:(fun (srv, _, _) -> Child.stop srv)
      (fun () ->
        rng := Workload.Prng.create seed;
        setup !rng)
  in
  let tracer = if trace then Some (Trace.create ()) else None in
  let warm, ph, rss_mb, docs =
    Fun.protect
      ~finally:(fun () -> Child.stop srv)
      (fun () ->
        let cl = Child.conn srv 0 in
        let warm = phase ~tracer:None ~seconds:Common.warmup_s ~rng:!rng ~srv ~fresh ~hot in
        let m0 = Serve.Client.metrics cl and s0 = Serve.Client.stats cl in
        let ph = phase ~tracer ~seconds ~rng:!rng ~srv ~fresh ~hot in
        let m1 = Serve.Client.metrics cl and s1 = Serve.Client.stats cl in
        (warm, ph, Option.value (Child.peak_rss_mb srv) ~default:0., (m0, m1, s0, s1)))
  in
  let checked, bad, parse, prepare, delta = check ~timings:trace ph.samples in
  let layers, notes =
    match tracer with
    | None -> ([], [])
    | Some tr ->
      Trace.dump tr (Common.out_path (Printf.sprintf "serve_mixed-%d.spans.json" seed));
      let m0, m1, s0, s1 = docs in
      layers_of ~ph ~m0 ~m1 ~s0 ~s1 ~parse ~prepare ~delta
  in
  let fresh_ms = List.filter_map (fun s -> if s.s_fresh then Some s.s_ms else None) ph.samples in
  (* every hot-set draw is a repeat, hit or not, so hits lost to a keying
     or eviction fault show as slower repeats *)
  let hot = List.filter (fun s -> not s.s_fresh) ph.samples in
  let repeat_ms = List.map (fun s -> s.s_ms) hot in
  let missed = List.length (List.filter (fun s -> not s.s_cached) hot) in
  {
    Common.rows;
    cache_cap = "serve defaults: plan cache 64, result cache 128 entries";
    setups_s;
    primary_ms = fresh_ms;
    repeat_ms;
    append_ms = [];
    ops = ph.ops;
    wall_s = ph.wall;
    attempted = ph.ops + ph.failed + warm.failed;
    failed = ph.failed + warm.failed + bad;
    checked;
    rss_mb;
    tail_cap = 95.;
    repeat_tail_cap = 90.;
    layers;
    notes =
      Printf.sprintf "hot-set repeats that missed the result cache: %d of %d" missed
        (List.length hot)
      :: Templates.window_note fresh
      :: notes;
  }
