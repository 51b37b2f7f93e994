(* Benchmark entry point: run one workload for a fixed time, check its
   answers, and print the metrics named in BENCHMARK.json.

     perfbench --workload oneshot|serve_mixed|stream|sic_scan
               --seed N --seconds S --trace 0|1

   Run it through perfbench/run.py, which builds the program and this
   benchmark from source first.  Human-readable lines go to stdout; the
   last stdout line is one JSON object: correct, attempted, failed and
   metrics (every end-to-end metric with --trace 0, every per-layer metric
   with --trace 1).  A full record (stamp, sample counts, chosen tail
   percentiles, notes) is written to .perfbench-out/. *)

open Perfbench

let workloads =
  [ ("oneshot", Oneshot.run);
    ("serve_mixed", Serve_mixed.run);
    ("stream", Stream.run);
    ("sic_scan", Sic_scan.run) ]

let default_seed = 1
let heldout_seed = 7

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref default_seed and seconds = ref 10.
  and trace = ref false in
  let rec go = function
    | "--workload" :: w :: rest ->
      workload := Some w;
      go rest
    | "--seed" :: s :: rest ->
      seed := (try int_of_string s with Failure _ -> usage ());
      go rest
    | "--seconds" :: s :: rest ->
      seconds := (try float_of_string s with Failure _ -> usage ());
      go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      trace := t = "1";
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload with
  | Some w when List.mem_assoc w workloads -> (w, !seed, !seconds, !trace)
  | _ -> usage ()

(* Metric names and units, from BENCHMARK.json at the checkout root. *)
let declared key =
  let j = Obs.Json.of_string (Bstats.read_file "BENCHMARK.json") in
  match Obs.Json.member key j with
  | Some (Obs.Json.Arr ms) ->
    List.map
      (fun m ->
        match (Obs.Json.member "name" m, Obs.Json.member "unit" m) with
        | Some (Obs.Json.Str n), Some (Obs.Json.Str u) -> (n, u)
        | _ -> failwith ("malformed metric in BENCHMARK.json " ^ key))
      ms
  | _ -> failwith ("BENCHMARK.json lacks " ^ key)

let shell_line cmd =
  try
    let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    line
  with _ -> ""

let stamp ~workload ~seed ~trace (o : Common.outcome) =
  let sha = match shell_line "git rev-parse --short HEAD" with "" -> "unknown" | s -> s in
  let dirty =
    if sha = "unknown" then "unknown"
    else if shell_line "git status --porcelain --untracked-files=no | head -1" = "" then "clean"
    else "dirty"
  in
  [ ("workload", Obs.Json.Str workload);
    ("seed", Obs.Json.Num (float_of_int seed));
    ("default_seed", Obs.Json.Num (float_of_int default_seed));
    ("heldout_seed", Obs.Json.Num (float_of_int heldout_seed));
    ("server_data_seed", Obs.Json.Num 2017.);
    ("trace", Obs.Json.Bool trace);
    ("git_sha", Obs.Json.Str sha);
    ("git_tree", Obs.Json.Str dirty);
    ("nproc", Obs.Json.Num (float_of_int (Domain.recommended_domain_count ())));
    ("ocaml", Obs.Json.Str Sys.ocaml_version);
    ("rows", Obs.Json.Num (float_of_int o.Common.rows));
    ("cache_cap", Obs.Json.Str o.Common.cache_cap) ]

let failed_frac (o : Common.outcome) =
  float_of_int o.Common.failed /. float_of_int (max 1 o.Common.attempted)

let end_to_end (o : Common.outcome) =
  let tail cap xs =
    let p = Bstats.tail_percentile ~cap (List.length xs) in
    (p, Bstats.percentile p xs)
  in
  let lat_p, lat_tail = tail o.Common.tail_cap o.Common.primary_ms in
  let rep_p, rep_tail = tail o.Common.repeat_tail_cap o.Common.repeat_ms in
  let metrics =
    [ ("setup_s", Bstats.median o.Common.setups_s);
      ("latency_p50_ms", Bstats.median o.Common.primary_ms);
      ("latency_tail_ms", lat_tail);
      ("repeat_p50_ms", Bstats.median o.Common.repeat_ms);
      ("repeat_tail_ms", rep_tail);
      ("throughput_qps", float_of_int o.Common.ops /. o.Common.wall_s);
      ("peak_rss_mb", o.Common.rss_mb) ]
  in
  let info =
    [ ("latency_tail_pct", lat_p);
      ("latency_samples", float_of_int (List.length o.Common.primary_ms));
      ("repeat_tail_pct", rep_p);
      ("repeat_samples", float_of_int (List.length o.Common.repeat_ms));
      ("append_samples", float_of_int (List.length o.Common.append_ms));
      ("setups", float_of_int (List.length o.Common.setups_s));
      ("checked_answers", float_of_int o.Common.checked);
      ("failed_frac", failed_frac o) ]
  in
  (metrics, info)

(* Per-layer metrics: what the workload measured, stream's client-timed
   append latencies, and [failed_frac]; a declared layer the workload does
   not exercise reads 0 and is listed in the record as not exercised. *)
let per_layer names (o : Common.outcome) =
  let append =
    match o.Common.append_ms with
    | [] -> []
    | xs ->
      let p = Bstats.tail_percentile ~cap:o.Common.tail_cap (List.length xs) in
      [ ("append_p50_ms", Bstats.median xs); ("append_tail_ms", Bstats.percentile p xs) ]
  in
  let measured =
    List.map (fun (n, v, _) -> (n, v)) o.Common.layers
    @ append
    @ [ ("failed_frac", failed_frac o) ]
  in
  let idle = List.filter (fun n -> not (List.mem_assoc n measured)) names in
  (List.map (fun n -> (n, Option.value (List.assoc_opt n measured) ~default:0.)) names, idle)

let () =
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130));
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload, seed, seconds, trace = parse_args () in
  let shown = declared (if trace then "per_layer" else "end_to_end") in
  let o = (List.assoc workload workloads) ~seed ~seconds ~trace in
  let metrics, info = end_to_end o in
  let layers, idle = per_layer (List.map fst shown) o in
  let values = if trace then layers else metrics in
  (* an empty sample (every op of a kind failed) has no median *)
  let values = List.map (fun (n, v) -> (n, if Float.is_finite v then v else 0.)) values in
  let unmeasured =
    List.filter
      (fun (n, _) ->
        match List.assoc_opt n (if trace then layers else metrics) with
        | Some v -> not (Float.is_finite v)
        | None -> true)
      shown
  in
  let correct = o.Common.failed = 0 && unmeasured = [] in
  let stamp = stamp ~workload ~seed ~trace o in
  let open Obs.Json in
  let num_obj kvs = Obj (List.map (fun (k, v) -> (k, Num v)) kvs) in
  let record =
    Obj
      (stamp
      @ [ ("correct", Bool correct);
          ("attempted", Num (float_of_int o.Common.attempted));
          ("failed", Num (float_of_int o.Common.failed));
          ((if trace then "per_layer" else "end_to_end"), num_obj values);
          ("info", num_obj info);
          ("setups_s", Arr (List.map (fun x -> Num x) o.Common.setups_s));
          ("notes", Arr (List.map (fun s -> Str s) o.Common.notes));
          ("not_exercised", Arr (List.map (fun s -> Str s) (if trace then idle else []))) ])
  in
  let oc =
    open_out_bin
      (Common.out_path
         (Printf.sprintf "%s-seed%d-trace%d.json" workload seed (Bool.to_int trace)))
  in
  output_string oc (to_string record);
  close_out oc;
  List.iter (fun (k, v) -> Printf.printf "# %-28s %s\n" k (to_string v)) stamp;
  List.iter (fun (k, v) -> Printf.printf "# %-28s %g\n" k v) info;
  Printf.printf "# %-28s %s\n" "setups_s"
    (String.concat " " (List.map (Printf.sprintf "%.3f") o.Common.setups_s));
  List.iter (fun s -> Printf.printf "# %s\n" s) o.Common.notes;
  List.iter (fun (n, _) -> Printf.printf "# not measured: %s\n" n) unmeasured;
  List.iter
    (fun (n, u) -> Printf.printf "%-32s %14.4f %s\n" n (List.assoc n values) u)
    shown;
  print_endline
    (to_string
       (Obj
          [ ("correct", Bool correct);
            ("attempted", Num (float_of_int o.Common.attempted));
            ("failed", Num (float_of_int o.Common.failed));
            ( "metrics",
              Obj
                (List.map
                   (fun (n, u) ->
                     (n, Obj [ ("value", Num (List.assoc n values)); ("unit", Str u) ]))
                   shown) ) ]));
  exit (if correct then 0 else 1)
