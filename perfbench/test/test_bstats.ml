(* Self-tests of the benchmark's statistics: the tail-percentile rule,
   ratios that carry their base, span self time, and the VmHWM reader. *)

open Perfbench

let feq = Alcotest.float 1e-9

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let tail_rule () =
  let t n = Bstats.tail_percentile n in
  Alcotest.(check feq) "p95 needs 200 samples" 95. (t 200);
  Alcotest.(check feq) "199 samples fall back to p90" 90. (t 199);
  Alcotest.(check feq) "p90 needs 100" 90. (t 100);
  Alcotest.(check feq) "99 samples fall back to p75" 75. (t 99);
  Alcotest.(check feq) "p75 needs 40" 75. (t 40);
  Alcotest.(check feq) "39 samples fall back to p50" 50. (t 39);
  Alcotest.(check feq) "p99 needs 1000" 99. (t 1000);
  Alcotest.(check feq) "p99.9 needs 10000" 99.9 (t 10_000);
  Alcotest.(check feq) "too few samples still report the median" 50. (t 3);
  Alcotest.(check feq) "the declared cap wins over more samples" 90.
    (Bstats.tail_percentile ~cap:90. 5000);
  (* at least ten samples beyond, for every n *)
  for n = 20 to 3000 do
    let p = t n in
    if p > 50. then
      Alcotest.(check bool)
        (Printf.sprintf "n=%d p=%g leaves >= 10 beyond" n p)
        true
        (float_of_int n *. (1. -. (p /. 100.)) >= 10. -. 1e-9)
  done

let percentile () =
  Alcotest.(check feq) "median interpolates" 2.5 (Bstats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check feq) "p0 is the minimum" 1. (Bstats.percentile 0. [ 3.; 1.; 2. ]);
  Alcotest.(check feq) "p100 is the maximum" 3. (Bstats.percentile 100. [ 3.; 1.; 2. ]);
  Alcotest.(check feq) "p90 of 1..11" 10. (Bstats.percentile 90. (List.init 11 (fun i -> float_of_int (i + 1))));
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Bstats.median []))

let ratios () =
  let r = Bstats.ratio ~base:"nljp.outer_rows" 30. 120. in
  Alcotest.(check (option feq)) "value" (Some 0.25) (Bstats.ratio_value r);
  Alcotest.(check string) "base kept" "nljp.outer_rows" r.Bstats.base;
  Alcotest.(check feq) "denominator kept" 120. r.Bstats.den;
  let s = Bstats.ratio_to_string r in
  Alcotest.(check bool) "rendering names the base" true
    (contains s "nljp.outer_rows" && contains s "120");
  let empty = Bstats.ratio ~base:"lookups" 0. 0. in
  Alcotest.(check (option feq)) "empty base is no data, not 0" None (Bstats.ratio_value empty);
  Alcotest.(check bool) "empty base says so" true
    (contains (Bstats.ratio_to_string empty) "lookups is 0")

let span ?parent id start stop =
  { Bstats.id; name = Printf.sprintf "s%d" id; parent; op = 0; start; stop }

let self_time () =
  let root = span 0 0. 10. in
  let spans =
    [ root;
      span ~parent:0 1 1. 3.;
      span ~parent:0 2 2. 5.;  (* overlaps span 1: counted once *)
      span ~parent:0 3 8. 12.;  (* runs past its parent: clipped *)
      span ~parent:1 4 1. 2.;  (* grandchild: already inside span 1 *)
      span 5 0. 100.  (* unrelated root *) ]
  in
  Alcotest.(check feq) "duration minus covered children" 4. (Bstats.self_time spans root);
  Alcotest.(check feq) "leaf keeps its whole duration" 3.
    (Bstats.self_time spans (List.nth spans 2));
  Alcotest.(check feq) "child covered by its own child" 1.
    (Bstats.self_time spans (List.nth spans 1));
  Alcotest.(check feq) "no children" 100. (Bstats.self_time spans (List.nth spans 5))

let status =
  "Name:\ticeberg_cli\nVmPeak:\t  300000 kB\nVmSize:\t  200000 kB\n\
   VmHWM:\t  123456 kB\nVmRSS:\t   65536 kB\n"

let vmhwm () =
  Alcotest.(check (option feq)) "VmHWM in MB" (Some (123456. /. 1024.))
    (Bstats.vmhwm_mb_of_status status);
  Alcotest.(check (option feq)) "VmRSS is not VmHWM" None
    (Bstats.vmhwm_mb_of_status "VmRSS:\t 10 kB\n");
  Alcotest.(check (option feq)) "malformed line" None
    (Bstats.vmhwm_mb_of_status "VmHWM:\t lots\n");
  Alcotest.(check (option feq)) "no line" None (Bstats.vmhwm_mb_of_status "");
  match Bstats.vmhwm_mb "self" with
  | Some mb -> Alcotest.(check bool) "this process has a peak" true (mb > 0.)
  | None -> Alcotest.(check bool) "no /proc: reader says so" true (not (Sys.file_exists "/proc/self/status"))

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "tail percentile rule" `Quick tail_rule;
          Alcotest.test_case "percentile interpolation" `Quick percentile;
          Alcotest.test_case "ratios carry their base" `Quick ratios;
          Alcotest.test_case "span self time" `Quick self_time;
          Alcotest.test_case "VmHWM reader" `Quick vmhwm ] ) ]
