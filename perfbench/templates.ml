(* The query templates of the in-process and server workloads: the paper's
   Q1–Q8 (Figure 1) plus the [complex] and [complex_filtered] iceberg joins
   over the unpivoted table.  Each template has one integer parameter (the
   HAVING threshold, or for [complex_filtered] a team × threshold pair),
   drawn from a window around the paper's value.  A window holds at least
   twice the instances one 15 s run draws from it on a 2-vCPU machine
   (serve_mixed draws the most: up to some 50 per template and 150 of Q8),
   so runs on different seeds draw most of the same window and see the
   same cost mix.  A draw that finds its window used up is counted, and
   the record says so. *)

module Q = Workload.Queries

type t = {
  name : string;
  cte : bool;  (** runs on the runner's direct path (WITH blocks) *)
  paper : int;  (** the parameter of Figure 1 (or the bench default) *)
  lo : int;
  width : int;
  sql : int -> string;
}

(* [complex_filtered]'s parameter p is team [p mod 30], threshold
   [2 + p / 30]; 37 is the bench default, team7 at threshold 3. *)
let complex_filtered p =
  Q.complex_filtered
    ~category:(Printf.sprintf "team%d" (p mod 30))
    ~threshold:(2 + (p / 30))
    ()

let tmpl ?(cte = false) name ~paper ~lo ~width sql = { name; cte; paper; lo; width; sql }
let skyband a k = Q.skyband ~a ~k ()
let pairs agg c k = Q.pairs ~agg ~c ~k ()

(* Q8's cost does not depend on its threshold (at 1000 rows every
   threshold above ~92 keeps every player), so its window can be as wide
   as serve_mixed's three-in-twelve share of fresh draws needs. *)
let all =
  [ tmpl "Q1" ~paper:50 ~lo:30 ~width:100 (skyband ("b_h", "b_hr"));
    tmpl "Q2" ~paper:200 ~lo:180 ~width:100 (skyband ("b_h", "b_hr"));
    tmpl "Q3" ~paper:50 ~lo:30 ~width:100 (skyband ("b_2b", "b_3b"));
    tmpl "Q4" ~cte:true ~paper:20 ~lo:10 ~width:100 (pairs `Avg 3);
    tmpl "Q5" ~cte:true ~paper:50 ~lo:35 ~width:100 (pairs `Sum 3);
    tmpl "Q6" ~cte:true ~paper:20 ~lo:10 ~width:100 (pairs `Avg 5);
    tmpl "Q7" ~cte:true ~paper:100 ~lo:80 ~width:100 (pairs `Sum 3);
    tmpl "Q8" ~cte:true ~paper:50 ~lo:30 ~width:400 (fun k ->
        Q.skyband_avg ~a:("b_h", "b_hr") ~k ());
    tmpl "complex" ~paper:30 ~lo:20 ~width:100 (fun t -> Q.complex ~threshold:t);
    tmpl "complex_filtered" ~paper:37 ~lo:0 ~width:120 complex_filtered ]

(* Hands out parameters never used before in this run, so each fresh
   query is a text the system has not seen. *)
type fresh = {
  rng : Workload.Prng.t;
  used : (string * int, unit) Hashtbl.t;
  mutable drawn : int;
  mutable outside : int;  (** draws past the end of a used-up window *)
}

let fresh_gen rng = { rng; used = Hashtbl.create 64; drawn = 0; outside = 0 }

(* The paper's instance, marked used so no fresh draw repeats it. *)
let paper_sql g t =
  Hashtbl.replace g.used (t.name, t.paper) ();
  t.sql t.paper

let draw g t =
  let start = Workload.Prng.int g.rng t.width in
  let rec go i =
    let p = if i < t.width then t.lo + ((start + i) mod t.width) else t.lo + i in
    if Hashtbl.mem g.used (t.name, p) then go (i + 1)
    else begin
      Hashtbl.replace g.used (t.name, p) ();
      g.drawn <- g.drawn + 1;
      if i >= t.width then g.outside <- g.outside + 1;
      p
    end
  in
  t.sql (go 0)

let window_note g =
  Printf.sprintf "fresh draws outside their threshold window: %d of %d" g.outside g.drawn

let find name = List.find (fun t -> t.name = name) all
