(* The [iceberg_cli serve] child process of the server workloads: started
   from the freshly built binary, polled until its socket accepts, and
   always reaped — on shutdown, on error and at exit. *)

let exe = Filename.concat "_build" (Filename.concat "default" "bin/iceberg_cli.exe")

(* [conns] are the child's client sessions, opened back to back once it
   accepts and closed only after shutdown.  Nothing here opens a
   connection while another is closing: the server's reader thread closes
   a finished connection's descriptor twice (channel, then fd), so a
   connection accepted between the two closes can be shut by the second
   one. *)
type t = {
  pid : int;
  addr : Serve.Protocol.addr;
  mutable alive : bool;
  mutable conns : Serve.Client.t list;
}

let live : t list ref = ref []

let kill_hard c =
  if c.alive then begin
    (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ());
    c.alive <- false
  end

let () = at_exit (fun () -> List.iter kill_hard !live)

let exited c =
  match Unix.waitpid [ Unix.WNOHANG ] c.pid with
  | 0, _ -> false
  | _ ->
    c.alive <- false;
    true
  | exception Unix.Unix_error _ -> true

(* Start [serve] with [args] on the Unix socket [sock], output to [log];
   return once [sessions] client connections are open. *)
let start ~sock ~log ~sessions args =
  (try Sys.remove sock with Sys_error _ -> ());
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let argv = Array.of_list ((exe :: "serve" :: args) @ [ "--addr"; "unix:" ^ sock ]) in
  (* the child gets the default SIGPIPE disposition; this process ignores
     it, so a dropped connection is an error here rather than a death *)
  Sys.set_signal Sys.sigpipe Sys.Signal_default;
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close fd;
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore)
      (fun () -> Unix.create_process exe argv Unix.stdin fd fd)
  in
  let c = { pid; addr = `Unix sock; alive = true; conns = [] } in
  live := c :: !live;
  let deadline = Unix.gettimeofday () +. 120. in
  let rec first () =
    if exited c then failwith ("server exited during start-up; see " ^ log)
    else if Unix.gettimeofday () > deadline then begin
      kill_hard c;
      failwith "server did not accept within 120s"
    end
    else if not (Sys.file_exists sock) then begin
      Thread.delay 0.002;
      first ()
    end
    else
      match Serve.Client.connect c.addr with
      | cl -> cl
      | exception (Unix.Unix_error _ | End_of_file | Sys_error _) ->
        Thread.delay 0.002;
        first ()
  in
  let cl = first () in
  c.conns <- cl :: List.init (sessions - 1) (fun _ -> Serve.Client.connect c.addr);
  c

let conn c i = List.nth c.conns i

let peak_rss_mb c = Bstats.vmhwm_mb (string_of_int c.pid)

(* Ask the server to stop over the first session, close every session and
   reap the child; kill it if it lingers. *)
let stop c =
  if c.alive then begin
    (match c.conns with cl :: _ -> (try Serve.Client.shutdown cl with _ -> ()) | [] -> ());
    List.iter Serve.Client.close c.conns;
    c.conns <- [];
    let deadline = Unix.gettimeofday () +. 20. in
    let rec reap () =
      if exited c then ()
      else if Unix.gettimeofday () > deadline then kill_hard c
      else begin
        Thread.delay 0.01;
        reap ()
      end
    in
    reap ();
    live := List.filter (fun x -> x != c) !live
  end
