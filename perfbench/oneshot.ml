(* oneshot: the in-process, single-client path.  Each primary op is parse →
   [Runner.run] on a never-seen instance of one of the ten templates;
   repeats re-execute a plan prepared at set-up ([Runner.run_prepared]).
   The paper's techniques and the §7 optimizer do nearly all the work. *)

open Relalg

let rows = 6000

(* One round: eleven fresh queries — every template once, [complex] twice —
   then five repeats (every hot plan once per two rounds).  The deadline is
   checked between whole rounds only, so every template's share of the
   samples is exact and the percentiles land at the same place in the mix
   whatever the run length: the median among the pairs/complex_filtered
   group, the p90 inside the slowest template, [complex], which holds the
   top 18% of the samples. *)
let fresh_pool = Templates.find "complex" :: Templates.all
let repeats_per_round = 5

type hot = { h_tmpl : Templates.t; h_sql : string; h_plan : Core.Runner.prepared }

let setup rng =
  let catalog = Catalog.create () in
  ignore (Workload.Baseball.register catalog ~rows ~seed:2017);
  ignore (Workload.Baseball.register_unpivoted catalog ~rows ~seed:2017);
  Workload.Baseball.build_indexes catalog;
  let fresh = Templates.fresh_gen rng in
  (* one prepared hot plan per template at the paper's threshold, warmed
     by one execution *)
  let hot =
    List.map
      (fun t ->
        let sql = Templates.paper_sql fresh t in
        let plan = Core.Runner.prepare catalog (Sqlfront.Parser.parse sql) in
        ignore (Core.Runner.run_prepared plan);
        { h_tmpl = t; h_sql = sql; h_plan = plan })
      Templates.all
  in
  (catalog, fresh, hot)

type phase = {
  primary : float list;
  repeat : float list;
  ops : int;
  wall : float;
  failed : int;
  samples : (Templates.t * string * Relation.t) list;  (* first fresh op per template *)
  direct_ms : float list;  (* runner.run on CTE templates *)
  rounds : Common.rounds;
}

let phase ~tracer ~seconds ~rng ~catalog ~fresh ~hot =
  let next_fresh = Common.balanced rng fresh_pool and next_hot = Common.balanced rng hot in
  let primary = ref [] and repeat = ref [] and ops = ref 0 and failed = ref 0 in
  let samples = ref [] and direct = ref [] in
  let t0 = Common.now () in
  let deadline = t0 +. seconds in
  let op_id = ref 0 and round = ref 0 and rounds = Common.rounds () in
  let one f =
    incr op_id;
    match f !op_id with
    | () -> incr ops
    | exception e ->
      incr failed;
      Printf.eprintf "oneshot: op failed: %s\n%!" (Printexc.to_string e)
  in
  while Common.now () < deadline do
    incr round;
    let tracer = Common.round_tracer tracer !round and r0 = Common.now () in
    for _ = 1 to List.length fresh_pool do
      one (fun op ->
          let t = next_fresh () in
          let sql = Templates.draw fresh t in
          let (r, _), ms =
            Common.timed (fun () ->
                Trace.span tracer ~op "oneshot.op" (fun parent ->
                    let q =
                      Trace.span tracer ?parent ~op "sqlfront.parse" (fun _ ->
                          Sqlfront.Parser.parse sql)
                    in
                    Trace.span tracer ?parent ~op "runner.run" (fun parent ->
                        Common.run_traced tracer ?parent ~op catalog q)))
          in
          primary := ms :: !primary;
          if t.Templates.cte then direct := ms :: !direct;
          if not (List.exists (fun (t', _, _) -> t' == t) !samples) then
            samples := (t, sql, r) :: !samples)
    done;
    for _ = 1 to repeats_per_round do
      one (fun op ->
          let h = next_hot () in
          let _, ms =
            Common.timed (fun () ->
                Trace.span tracer ~op "runner.run_prepared" (fun _ ->
                    Core.Runner.run_prepared h.h_plan))
          in
          repeat := ms :: !repeat)
    done;
    Common.record_round rounds tracer (Common.now () -. r0)
  done;
  {
    primary = !primary;
    repeat = !repeat;
    ops = !ops;
    wall = Common.now () -. t0;
    failed = !failed;
    samples = !samples;
    direct_ms = !direct;
    rounds;
  }

(* Answer check, outside the timed window: the first fresh instance of every
   template against the baseline executor (two domains, the Vendor A
   stand-in, to halve the O(n²) baseline joins), and every hot plan's
   prepared answer against a one-shot [Runner.run] of the same text. *)
let check catalog ph hot =
  let bad = ref 0 and n = ref 0 in
  List.iter
    (fun (t, sql, got) ->
      incr n;
      let want = Core.Runner.run_baseline ~workers:2 catalog (Sqlfront.Parser.parse sql) in
      if not (Core.Runner.same_result want got) then begin
        incr bad;
        Printf.eprintf "oneshot: WRONG ANSWER for %s: %s\n%!" t.Templates.name sql
      end)
    ph.samples;
  List.iter
    (fun h ->
      incr n;
      let got, _ = Core.Runner.run_prepared h.h_plan in
      let want, _ = Core.Runner.run catalog (Sqlfront.Parser.parse h.h_sql) in
      if not (Core.Runner.same_result want got) then begin
        incr bad;
        Printf.eprintf "oneshot: WRONG ANSWER (prepared) for %s\n%!" h.h_tmpl.Templates.name
      end)
    hot;
  (!n, !bad)

let layers_of ~tr ~ph ~counters ~gc_before ~gc_after ~catalog =
  let med xs = if xs = [] then 0. else Bstats.median xs in
  let spans = Trace.spans tr in
  (* ops on the direct path: their Runner.run span tree has a cte: block *)
  let cte_ops = Hashtbl.create 64 in
  List.iter
    (fun (s : Bstats.span) ->
      if String.starts_with ~prefix:"cte:" s.Bstats.name then
        Hashtbl.replace cte_ops s.Bstats.op ())
    spans;
  (* per-op total self time of the spans called [name] (a CTE query plans
     and executes once per block), over the ops [keep] accepts *)
  let per_op ?(keep = fun _ -> true) name =
    let by_op = Hashtbl.create 64 in
    List.iter
      (fun (s : Bstats.span) ->
        if s.Bstats.name = name && keep s.Bstats.op then
          Hashtbl.replace by_op s.Bstats.op
            (Option.value (Hashtbl.find_opt by_op s.Bstats.op) ~default:0.
            +. (Bstats.self_time spans s *. 1000.)))
      spans;
    Hashtbl.fold (fun _ v acc -> v :: acc) by_op []
  in
  (* §6 partial-state build, per template, on the paper's instance *)
  let delta =
    List.filter_map
      (fun (t : Templates.t) ->
        let q = Sqlfront.Parser.parse (t.Templates.sql t.Templates.paper) in
        if Core.Delta.supported catalog q then
          let _, ms = Common.timed (fun () -> Core.Delta.init catalog q) in
          Some (t.Templates.name, ms)
        else None)
      Templates.all
  in
  let counted, ratio_notes = Common.counter_layers (Common.fcounter counters) in
  ( [ ("sqlfront.parse_ms", med (Trace.durations_ms tr "sqlfront.parse"), "ms");
      ("optimizer.prepare_ms", med (per_op "optimize"), "ms");
      ( "nljp.execute_ms",
        med (per_op ~keep:(fun op -> not (Hashtbl.mem cte_ops op)) "execute"),
        "ms" );
      ("runner.direct_ms", med ph.direct_ms, "ms");
      ("delta.init_ms", med (List.map snd delta), "ms");
      Common.overhead_layer ph.rounds ]
    @ counted
    @ Common.gc_layers ~before:gc_before ~after:gc_after ~ops:ph.ops,
    ratio_notes
    @ List.map (fun (n, ms) -> Printf.sprintf "delta.init_ms[%s] = %.1f" n ms) delta )

let run ~seed ~seconds ~trace =
  let ((catalog, fresh, hot), rng), setups_s =
    Common.repeat_setup (fun () ->
        let rng = Workload.Prng.create seed in
        (setup rng, rng))
  in
  let tracer = if trace then Some (Trace.create ()) else None in
  let before = Obs.Metrics.snapshot () and gc_before = Gc.quick_stat () in
  let warm = phase ~tracer:None ~seconds:Common.warmup_s ~rng ~catalog ~fresh ~hot in
  let ph = phase ~tracer ~seconds ~rng ~catalog ~fresh ~hot in
  let counters = Obs.Metrics.delta ~before ~after:(Obs.Metrics.snapshot ()) in
  let gc_after = Gc.quick_stat () in
  let layers, notes =
    match tracer with
    | None -> ([], [])
    | Some tr ->
      Trace.dump tr (Common.out_path (Printf.sprintf "oneshot-%d.spans.json" seed));
      layers_of ~tr ~ph ~counters ~gc_before ~gc_after ~catalog
  in
  let rss_mb = Common.self_rss_mb () in
  let checked, bad = check catalog ph hot in
  {
    Common.rows;
    cache_cap = "none (resident row layout)";
    setups_s;
    primary_ms = ph.primary;
    repeat_ms = ph.repeat;
    append_ms = [];
    ops = ph.ops;
    wall_s = ph.wall;
    attempted = ph.ops + ph.failed + warm.failed;
    failed = ph.failed + warm.failed + bad;
    checked;
    rss_mb;
    tail_cap = 90.;
    repeat_tail_cap = 75.;
    layers;
    notes = Templates.window_note fresh :: notes;
  }
