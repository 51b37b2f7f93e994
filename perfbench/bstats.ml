(* Statistics behind the benchmark's figures.  Nothing here touches the
   clock or the program under test (the one file read is /proc status
   text), so every rule the report relies on is unit-tested in
   test/test_bstats.ml. *)

(* Percentile of [xs] by linear interpolation between closest ranks (the
   "exclusive" definition is unnecessary here: samples are ms timings and
   every workload keeps tens to thousands of them).  [p] in [0, 100]. *)
let percentile p xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    Array.sort compare a;
    let r = p /. 100. *. float_of_int (n - 1) in
    let lo = truncate r in
    let hi = min (n - 1) (lo + 1) in
    let f = r -. float_of_int lo in
    a.(lo) +. (f *. (a.(hi) -. a.(lo)))
  end

let median xs = percentile 50. xs

(* Tail percentiles the report may use, highest first. *)
let tail_candidates = [ 99.9; 99.; 95.; 90.; 75.; 50. ]

(* The highest candidate percentile with at least ten samples above it
   among [n]: p95 needs 200 samples, p90 100, p75 40.  [cap] is the
   workload's declared tail, so a run that happens to collect a few more
   samples than usual does not switch the metric to a higher percentile.
   Falls back to the median when even p50 lacks the samples. *)
let tail_percentile ?(cap = 100.) n =
  let ok p = p <= cap && float_of_int n *. (1. -. (p /. 100.)) >= 10. -. 1e-9 in
  match List.find_opt ok tail_candidates with Some p -> p | None -> 50.

(* A ratio keeps its numerator, denominator and the name of its base, so a
   report can always say "0.81 of 5120 outer_rows" rather than a bare
   fraction, and an empty base reads as "no data", not as 0 or 1. *)
type ratio = { num : float; den : float; base : string }

let ratio ~base num den = { num; den; base }

let ratio_value r = if r.den > 0. then Some (r.num /. r.den) else None

let ratio_to_string r =
  match ratio_value r with
  | Some v -> Printf.sprintf "%.4f (%g / %g %s)" v r.num r.den r.base
  | None -> Printf.sprintf "n/a (base %s is 0)" r.base

(* Spans recorded by the benchmark: [start] and [stop] in seconds on one
   clock, [parent] the index of the enclosing span in the same list. *)
type span = {
  id : int;
  name : string;
  parent : int option;
  op : int;
  start : float;
  stop : float;
}

(* Length of the union of intervals, each clipped to [lo, hi]. *)
let covered ~lo ~hi ivs =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (acc, Some (ca, Float.max cb b))
          else (acc +. (cb -. ca), Some (a, b)))
      (0., None) ivs
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Self time of [s]: its duration minus the part covered by its direct
   children (overlapping children count once; parts of a child outside its
   parent do not count). *)
let self_time spans s =
  let kids =
    List.filter_map
      (fun c -> if c.parent = Some s.id then Some (c.start, c.stop) else None)
      spans
  in
  (s.stop -. s.start) -. covered ~lo:s.start ~hi:s.stop kids

(* Peak resident set from the text of /proc/<pid>/status: the VmHWM line,
   in kB, converted to MB. *)
let vmhwm_mb_of_status text =
  let lines = String.split_on_char '\n' text in
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.sub line 0 i = "VmHWM" ->
        let rest = String.sub line (i + 1) (String.length line - i - 1) in
        (try Scanf.sscanf rest " %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
         with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
      | _ -> None)
    lines

let read_file path = In_channel.with_open_bin path In_channel.input_all

let vmhwm_mb pid =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | text -> vmhwm_mb_of_status text
  | exception Sys_error _ -> None
