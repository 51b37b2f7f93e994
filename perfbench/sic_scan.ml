(* sic_scan: in-process over a 1M-row table written with [Sic.save_rows]
   and opened paged, the block cache capped at a quarter of the table's
   decoded size — the only workload larger than the program's own cache.
   Ops are selective range filters on the clustered key, whole-table
   aggregates and GROUP BY … HAVING, each through [Runner.run]; repeats
   re-issue the round's ranges.  lib/column (blockfile, encode,
   blockcache), colscan and colagg do the work. *)

open Relalg

let rows = 1_000_000
let block = Column.Cstore.default_block_size

(* A range filter covers eight whole blocks of the clustered key, and a
   residual [score < 3] keeps 3 rows in 1000 of them (about 100).  Its
   cost is then the fetch of its blocks, not building its result: with
   2048 result rows a repeat spent most of its time on them and the GC
   work they bring.  And eight blocks smooth the cost over cache states:
   a single block costs 0.1, 0.2, 0.4 or 0.7 ms as its decoded form, its
   encoded form or neither is cached, and the median of one-block ranges
   moved by a quarter from run to run. *)
let range_blocks = 8

(* Same shape as the bench harness's .sic table, so every codec engages:
   [id] clustered, [grp]/[score] small ranges, [tag] in long runs, [x] raw
   floats, a sprinkle of NULLs. *)
let schema = Schema.of_names [ "id"; "grp"; "tag"; "x"; "score" ]
let tags = [| "alpha"; "beta"; "gamma"; "delta" |]

let row i =
  [| Value.Int i;
     (if i mod 101 = 0 then Value.Null else Value.Int (i mod 97));
     Value.Str tags.((i / 1000) mod 4);
     Value.Float (float_of_int (i * 7 mod 1000) /. 10.);
     Value.Int (i * 13 mod 1000) |]

let path () = Common.out_path "ev.sic"

let catalog_of rel =
  let c = Catalog.create () in
  Catalog.add_table c "ev" rel;
  c

type env = {
  catalog : Catalog.t;
  save_ms : float;
  open_ms : float;
  cap_mb : int;
  decoded : int;  (* bytes *)
}

(* The table's decoded size: the sum of its blocks' decoded footprints,
   the weight the block cache charges for them (a paged store's
   [approx_bytes] is its compressed payload instead).  The table does not
   move with the seed, so it is weighed once per run, before the timed
   set-ups, by decoding every block through a 1 MB cache. *)
let decoded_bytes () =
  let p = path () in
  Sic.save_rows p schema (Seq.init rows row);
  Column.Blockcache.set_capacity_mb 1;
  let cs = Relation.cstore (Sic.load ~mode:`Paged p) in
  let total = ref 0 in
  for i = 0 to Column.Cstore.nblocks cs - 1 do
    total := !total + Column.Cstore.block_bytes (Column.Cstore.block cs i)
  done;
  Column.Blockcache.clear ();
  !total

let setup ~decoded =
  let p = path () in
  (* the previous file goes first, so writeback of its pages does not
     fall into this save *)
  (try Sys.remove p with Sys_error _ -> ());
  let (), save_ms = Common.timed (fun () -> Sic.save_rows p schema (Seq.init rows row)) in
  let rel, open_ms = Common.timed (fun () -> Sic.load ~mode:`Paged p) in
  let cap_mb = max 1 (decoded / 4 / 1_048_576) in
  Column.Blockcache.set_capacity_mb cap_mb;
  { catalog = catalog_of rel; save_ms; open_ms; cap_mb; decoded }

let range_sql first =
  Printf.sprintf "SELECT id, score FROM ev WHERE id >= %d AND id < %d AND score < 3"
    (first * block) ((first + range_blocks) * block)

let agg_sqls =
  [| "SELECT COUNT(*), SUM(score), MIN(score), MAX(score), AVG(x) FROM ev";
     "SELECT COUNT(*), SUM(x), MIN(id), MAX(id) FROM ev WHERE tag = 'beta'" |]

let group_sql t =
  Printf.sprintf "SELECT grp, COUNT(*), SUM(score) FROM ev GROUP BY grp HAVING COUNT(*) >= %d" t

type phase = {
  primary : float list;
  repeat : float list;
  ops : int;
  wall : float;
  failed : int;
  kept : (string * Relation.t) list;  (* answers kept for the check *)
  rounds : Common.rounds;
}

let phase ~tracer:round_tracer ~seconds ~rng ~catalog =
  let primary = ref [] and repeat = ref [] and ops = ref 0 and failed = ref 0 in
  let kept = ref [] and op_id = ref 0 and rounds = Common.rounds () in
  let t0 = Common.now () in
  let deadline = t0 +. seconds in
  let exec ~tracer ~keep sql =
    incr op_id;
    let op = !op_id in
    match
      Common.timed (fun () ->
          Trace.span tracer ~op "sic.op" (fun parent ->
              let q =
                Trace.span tracer ?parent ~op "sqlfront.parse" (fun _ ->
                    Sqlfront.Parser.parse sql)
              in
              Trace.span tracer ?parent ~op "runner.run" (fun parent ->
                  fst (Common.run_traced tracer ?parent ~op catalog q))))
    with
    | r, ms ->
      incr ops;
      if keep then kept := (sql, r) :: !kept;
      Some ms
    | exception e ->
      incr failed;
      Printf.eprintf "sic_scan: op failed: %s\n%!" (Printexc.to_string e);
      None
  in
  (* One round: twelve fresh ranges, each read twice more right away
     (repeats, served from the block cache), then four heavy ops: the two
     aggregates and two GROUP BYs.  Zone maps skip every block outside a
     range, so a fresh range reads exactly its eight.  The deadline is
     checked between whole rounds, so each op kind's share of the samples
     is exact: the median falls among the ranges (12 of 16), the p90 inside
     the GROUP BYs (the slowest 2 of 16).  Two choices keep those places
     steady.  With one GROUP BY per round the p90 fell in the
     [tag = 'beta'] aggregate, whose latency is bimodal from run to run
     (GC work).  And the op after a heavy op pays for the garbage it left:
     with the heavy ops spread among the ranges, a third of the ranges
     paid for it, and the median range sat on that step. *)
  let round = ref 0 in
  (* first blocks come from a balanced stream, so every seed reads the
     same ranges, in its own order, as far as a run gets *)
  let next_range =
    Common.balanced rng (List.init ((rows / block) - range_blocks + 1) Fun.id)
  in
  while Common.now () < deadline do
    let tracer = Common.round_tracer round_tracer !round and r0 = Common.now () in
    let keep = !round mod 4 = 0 in
    for _ = 1 to 12 do
      let sql = range_sql (next_range ()) in
      Option.iter (fun ms -> primary := ms :: !primary) (exec ~tracer ~keep sql);
      for _ = 1 to 2 do
        Option.iter (fun ms -> repeat := ms :: !repeat) (exec ~tracer ~keep:false sql)
      done
    done;
    let group () = group_sql (10_290 + Workload.Prng.int rng 30) in
    List.iter
      (fun sql -> Option.iter (fun ms -> primary := ms :: !primary) (exec ~tracer ~keep sql))
      [ agg_sqls.(0); group (); agg_sqls.(1); group () ];
    Common.record_round rounds tracer (Common.now () -. r0);
    incr round
  done;
  {
    primary = !primary;
    repeat = !repeat;
    ops = !ops;
    wall = Common.now () -. t0;
    failed = !failed;
    kept = !kept;
    rounds;
  }

(* Kept answers against the same queries on the fully decoded resident
   relation. *)
let check kept =
  let resident = catalog_of (Sic.load ~mode:`Resident (path ())) in
  List.fold_left
    (fun bad (sql, got) ->
      let want, _ = Core.Runner.run resident (Sqlfront.Parser.parse sql) in
      if Core.Runner.same_result want got then bad
      else begin
        Printf.eprintf "sic_scan: WRONG ANSWER for %s\n%!" sql;
        bad + 1
      end)
    0 kept

let layers_of ~env ~io ~tr ~ph ~counters ~gc_before ~gc_after =
  let med xs = if xs = [] then 0. else Bstats.median xs in
  let counted, ratio_notes = Common.counter_layers (Common.fcounter counters) in
  let bytes = (Unix.stat (path ())).Unix.st_size in
  ( [ ("sqlfront.parse_ms", med (Trace.durations_ms tr "sqlfront.parse"), "ms");
      ("optimizer.prepare_ms", med (Trace.durations_ms tr "optimize"), "ms");
      ("sic.save_ms", med (List.map fst io), "ms");
      ("sic.open_ms", med (List.map snd io), "ms");
      ("sic.file_bytes_per_row", float_of_int bytes /. float_of_int rows, "bytes");
      Common.overhead_layer ph.rounds ]
    @ counted
    @ Common.gc_layers ~before:gc_before ~after:gc_after ~ops:ph.ops,
    Printf.sprintf "block cache capped at %d MB of %d MB decoded (%d MB on disk)" env.cap_mb
      (env.decoded / 1_048_576) (bytes / 1_048_576)
    :: ratio_notes )

let run ~seed ~seconds ~trace =
  let io = ref [] and decoded = decoded_bytes () in
  let env, setups_s =
    Common.repeat_setup (fun () ->
        let env = setup ~decoded in
        io := (env.save_ms, env.open_ms) :: !io;
        env)
  in
  let rng = Workload.Prng.create seed in
  let tracer = if trace then Some (Trace.create ()) else None in
  let before = Obs.Metrics.snapshot () and gc_before = Gc.quick_stat () in
  let warm = phase ~tracer:None ~seconds:Common.warmup_s ~rng ~catalog:env.catalog in
  let ph = phase ~tracer ~seconds ~rng ~catalog:env.catalog in
  let counters = Obs.Metrics.delta ~before ~after:(Obs.Metrics.snapshot ()) in
  let gc_after = Gc.quick_stat () in
  let layers, notes =
    match tracer with
    | None -> ([], [])
    | Some tr ->
      Trace.dump tr (Common.out_path (Printf.sprintf "sic_scan-%d.spans.json" seed));
      layers_of ~env ~io:!io ~tr ~ph ~counters ~gc_before ~gc_after
  in
  (* peak before the resident copy for the check is decoded *)
  let rss_mb = Common.self_rss_mb () in
  let bad = check ph.kept in
  (try Sys.remove (path ()) with Sys_error _ -> ());
  {
    Common.rows;
    cache_cap = Printf.sprintf "block cache %d MB (1/4 of %d MB decoded)" env.cap_mb (env.decoded / 1_048_576);
    setups_s;
    primary_ms = ph.primary;
    repeat_ms = ph.repeat;
    append_ms = [];
    ops = ph.ops;
    wall_s = ph.wall;
    attempted = ph.ops + ph.failed + warm.failed;
    failed = ph.failed + warm.failed + bad;
    checked = List.length ph.kept;
    rss_mb;
    tail_cap = 90.;
    repeat_tail_cap = 75.;
    layers;
    notes;
  }
