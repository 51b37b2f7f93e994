(* In-memory span recorder for the traced run.  The benchmark wraps its
   calls into the program's public entry points in spans; the optional
   [Obs.Span] tree a call returns (Runner's optimize / execute / transfer
   children) is grafted underneath.  Nothing is written until [dump], so
   recording costs a mutex and a list cons per span. *)

type t = {
  mu : Mutex.t;
  mutable next : int;
  mutable spans : Bstats.span list;
}

let create () = { mu = Mutex.create (); next = 0; spans = [] }

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let fresh_id t =
  with_lock t (fun () ->
      let id = t.next in
      t.next <- id + 1;
      id)

let record t span = with_lock t (fun () -> t.spans <- span :: t.spans)

(* Run [f] inside a span; [f] receives the span's id for its children.
   With no recorder, [f] runs untouched and gets [None]. *)
let span t ?parent ~op name f =
  match t with
  | None -> f None
  | Some tr ->
    let start = Unix.gettimeofday () and id = fresh_id tr in
    Fun.protect
      ~finally:(fun () ->
        record tr { Bstats.id; name; parent; op; start; stop = Unix.gettimeofday () })
      (fun () -> f (Some id))

(* Graft the children of an [Obs.Span] tree under bench span [parent]. *)
let rec graft t ~parent ~op (s : Obs.Span.t) =
  List.iter
    (fun (c : Obs.Span.t) ->
      let start = c.Obs.Span.start_s and id = fresh_id t in
      record t
        { Bstats.id; name = c.Obs.Span.name; parent = Some parent; op; start;
          stop = start +. (c.Obs.Span.dur_ms /. 1000.) };
      graft t ~parent:id ~op c)
    (Obs.Span.children s)

let spans t = with_lock t (fun () -> List.rev t.spans)

(* Durations in ms of every span called [name]. *)
let durations_ms t name =
  List.filter_map
    (fun (s : Bstats.span) ->
      if s.Bstats.name = name then Some ((s.Bstats.stop -. s.Bstats.start) *. 1000.) else None)
    (spans t)

let dump t path =
  let open Obs.Json in
  let j =
    Arr
      (List.map
         (fun (s : Bstats.span) ->
           Obj
             [ ("id", Num (float_of_int s.Bstats.id));
               ("name", Str s.Bstats.name);
               ( "parent",
                 match s.Bstats.parent with
                 | Some p -> Num (float_of_int p)
                 | None -> Null );
               ("op", Num (float_of_int s.Bstats.op));
               ("start", Num s.Bstats.start);
               ("end", Num s.Bstats.stop) ])
         (spans t))
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string j))
