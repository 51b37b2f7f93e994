(* What every workload hands back, plus the helpers they share. *)

type outcome = {
  rows : int;  (** rows of the data under test *)
  cache_cap : string;  (** cache caps in force, for the stamp *)
  setups_s : float list;  (** each full set-up, launch to first timed op *)
  primary_ms : float list;  (** the workload's primary op *)
  repeat_ms : float list;  (** repeats of an op the system already served *)
  append_ms : float list;  (** append RPCs (stream only) *)
  ops : int;  (** completed timed ops, every class *)
  wall_s : float;  (** wall time of the timed loop *)
  attempted : int;
  failed : int;  (** errors, refusals and wrong answers *)
  checked : int;  (** answers compared against an independent run *)
  rss_mb : float;  (** VmHWM of the process that executes queries *)
  tail_cap : float;  (** declared tail percentile of the primary op *)
  repeat_tail_cap : float;  (** and of the repeats *)
  layers : (string * float * string) list;  (** traced run: name, value, unit *)
  notes : string list;  (** human-readable lines for the report *)
}

let out_dir = ".perfbench-out"

let out_path name =
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Filename.concat out_dir name

let now = Unix.gettimeofday

(* Run [f], return its result and wall time in ms. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, (now () -. t0) *. 1000.)

(* Set-ups per run; [setup_s] is their median. *)
let setups = 3

(* Run [setup] [setups] times; return the last result and every set-up's
   wall time in seconds.  Earlier results go to [discard] as soon as they are
   timed.  The heap is collected before each set-up, so each starts from
   the same state, and before the timed loop, so the measured process
   holds what a single set-up leaves behind. *)
let repeat_setup ?(discard = ignore) setup =
  let times = ref [] and last = ref None in
  for i = 1 to setups do
    Gc.full_major ();
    let r, ms = timed setup in
    times := (ms /. 1000.) :: !times;
    if i < setups then discard r else last := Some r
  done;
  Gc.full_major ();
  (Option.get !last, List.rev !times)

(* Untimed warm-up before the timed loop: long enough for one round of
   every workload, so heap growth, first-touch page faults and lazily
   built state land here and not on the clock. *)
let warmup_s = 1.

let self_rss_mb () =
  Option.value (Bstats.vmhwm_mb "self") ~default:0.

(* Fisher–Yates over an array copy, driven by the workload's PRNG. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Workload.Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* An endless, balanced stream over [xs]: each block of [List.length xs]
   draws is a seeded permutation, so every element keeps its share
   whatever the seed and the run length. *)
let balanced rng xs =
  let q = Queue.create () in
  fun () ->
    if Queue.is_empty q then List.iter (fun x -> Queue.add x q) (shuffle rng xs);
    Queue.pop q

(* A counter's increase in a [Obs.Metrics.delta] list; absent means 0. *)
let fcounter d name = float_of_int (Option.value (List.assoc_opt name d) ~default:0)

let ratio_metric name r =
  (name, Option.value (Bstats.ratio_value r) ~default:0., "ratio")

let ratio_note name r = Printf.sprintf "%-32s %s" name (Bstats.ratio_to_string r)

(* Every per-layer metric that is a function of the [Obs] counters, given
   one phase's counter deltas [c] — this process's registry for the
   in-process workloads, the server's for the server workloads.  Each
   ratio comes with its base as a count of its own, and a note that
   spells both out. *)
let counter_layers c =
  let ratio name ~base num den = (name, Bstats.ratio ~base num den) in
  let ratios =
    [ ratio "nljp.prune_ratio" ~base:"nljp.outer_rows" (c "nljp.pruned") (c "nljp.outer_rows");
      ratio "nljp.memo_hit_ratio" ~base:"memo_hits+inner_evals" (c "nljp.memo_hits")
        (c "nljp.memo_hits" +. c "nljp.inner_evals");
      ratio "nljp.inner_block_skip_ratio" ~base:"nljp.inner_blocks"
        (c "nljp.inner_blocks_skipped")
        (c "nljp.inner_blocks_skipped" +. c "nljp.inner_blocks_scanned");
      ratio "transfer.rows_drop_ratio" ~base:"transfer.rows_probed" (c "transfer.rows_dropped")
        (c "transfer.rows_probed");
      ratio "serve.result_cache_hit_ratio" ~base:"serve.result_cache_lookups"
        (c "serve.result_hit") (c "serve.result_hit" +. c "serve.result_miss");
      ratio "serve.plan_cache_hit_ratio" ~base:"serve.plan_cache_lookups" (c "serve.plan_hit")
        (c "serve.plan_hit" +. c "serve.plan_miss");
      ratio "blockcache.hit_ratio" ~base:"blockcache.lookups" (c "sic.cache_hits")
        (c "sic.cache_hits" +. c "sic.cache_misses");
      ratio "sic.direct_ratio" ~base:"sic.blocks" (c "sic.blocks_direct")
        (c "sic.blocks_direct" +. c "sic.blocks_decoded");
      ratio "colscan.block_skip_ratio" ~base:"colscan.blocks" (c "colscan.blocks_skipped")
        (c "colscan.blocks_skipped" +. c "colscan.blocks_scanned") ]
  in
  let count name = (name, c name, "count") in
  let counts =
    [ count "optimizer.nljp_plans";
      count "optimizer.apriori_rewrites";
      count "optimizer.transfer_plans";
      count "nljp.outer_rows";
      count "nljp.inner_evals";
      count "nljp.pruned";
      count "nljp.memo_hits";
      count "nljp.vector_fallbacks";
      ("nljp.cache_bytes", c "nljp.cache_bytes", "bytes");
      count "transfer.filters_built";
      count "serve.rejected";
      count "sic.cache_evictions" ]
  in
  (* a base that is not already a metric (memo_hits + inner_evals is the
     sum of two that are) becomes one *)
  let bases =
    List.filter_map
      (fun (_, r) ->
        let b = r.Bstats.base in
        if String.contains b '+' || List.exists (fun (n, _, _) -> n = b) counts then None
        else Some (b, r.Bstats.den, "count"))
      ratios
  in
  ( counts @ List.map (fun (name, r) -> ratio_metric name r) ratios @ bases,
    List.map (fun (name, r) -> ratio_note name r) ratios )

(* GC work per op over a phase, from [Gc.quick_stat] deltas. *)
let gc_layers ~before ~after ~ops =
  let ops = float_of_int (max 1 ops) in
  let words = after.Gc.minor_words -. before.Gc.minor_words in
  [ ( "gc.minor_mb_per_op",
      words *. float_of_int (Sys.word_size / 8) /. 1_048_576. /. ops,
      "MB" );
    ( "gc.major_per_op",
      float_of_int (after.Gc.major_collections - before.Gc.major_collections) /. ops,
      "count" ) ]

(* Counters read from the server's [metrics] document. *)
let server_counters m =
  match Obs.Json.member "counters" m with
  | Some (Obs.Json.Obj kvs) ->
    List.filter_map
      (fun (k, v) ->
        match v with Obs.Json.Num x -> Some (k, int_of_float x) | _ -> None)
      kvs
  | _ -> []

(* (count, sum, p50, p95) of a server histogram; the quantiles are the
   server's power-of-two bucket estimates over its whole life. *)
let server_hist m name =
  match Option.bind (Obs.Json.member "histograms" m) (Obs.Json.member name) with
  | Some h ->
    let num k = match Obs.Json.member k h with Some (Obs.Json.Num x) -> x | _ -> 0. in
    (num "count", num "sum", num "p50", num "p95")
  | None -> (0., 0., 0., 0.)

(* Mean of a server histogram's observations between two [metrics]
   documents. *)
let server_hist_mean m0 m1 name =
  let n0, s0, _, _ = server_hist m0 name and n1, s1, _, _ = server_hist m1 name in
  if n1 > n0 then (s1 -. s0) /. (n1 -. n0) else 0.

(* [counter_layers] over the server's counters between two [metrics]
   documents. *)
let server_counter_layers m0 m1 =
  counter_layers
    (fcounter (Obs.Metrics.delta ~before:(server_counters m0) ~after:(server_counters m1)))

(* Tracing overhead, measured inside the traced run: tracing is on for odd
   rounds (cycles, ops) only, so traced and untraced rounds interleave over
   the same data and machine state, and the overhead is the mean traced
   round over the mean untraced one, minus one, in percent. *)
type rounds = { mutable traced : float list; mutable untraced : float list }

let rounds () = { traced = []; untraced = [] }

let round_tracer tracer i = if i mod 2 = 1 then tracer else None

let record_round r tracer ms =
  match tracer with
  | Some _ -> r.traced <- ms :: r.traced
  | None -> r.untraced <- ms :: r.untraced

let overhead_layer r =
  let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
  ( "trace.overhead_pct",
    (if r.traced = [] || r.untraced = [] then 0.
     else ((mean r.traced /. mean r.untraced) -. 1.) *. 100.),
    "%" )

(* Result-cache evictions from a server [stats] document. *)
let evictions stats =
  match Option.bind (Obs.Json.member "result_cache" stats) (Obs.Json.member "evictions") with
  | Some (Obs.Json.Num x) -> x
  | _ -> 0.

(* [Runner.run], with its [Obs.Span] tree grafted under bench span
   [parent] when tracing. *)
let run_traced tracer ?parent ~op catalog q =
  match (tracer, parent) with
  | Some tr, Some id ->
    let sp = Obs.Span.enter "run" in
    let res = Core.Runner.run ~span:sp catalog q in
    Obs.Span.finish sp;
    Trace.graft tr ~parent:id ~op sp;
    res
  | _ -> Core.Runner.run catalog q
