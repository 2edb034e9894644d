(* Child server processes: spawn a psc subcommand listening on a
   kernel-chosen loopback port, read the port from its readiness line,
   read its peak RSS, stop it and reap it. *)

type t = { pid : int; port : int; name : string }

external set_affinity : int list -> bool = "perfbench_set_affinity"

external online_cpus : unit -> int = "perfbench_online_cpus"

external spin_idle : int -> int = "perfbench_spin_idle"

(* With two CPUs or more, the load generator keeps CPU 0 and servers that
   ask for it get the others: the generator's timer wake-ups then never
   queue behind server threads, nor the reverse.  A child inherits the
   affinity of the thread that forks it. *)
let generator_cpus = [ 0 ]

let all_cpus () = List.init (online_cpus ()) Fun.id

let server_cpus () = List.init (max 0 (online_cpus () - 1)) (fun i -> i + 1)

let pin_generator () =
  if online_cpus () >= 2 then ignore (set_affinity generator_cpus)

let with_cpus cpus f =
  if online_cpus () < 2 then f ()
  else begin
    ignore (set_affinity cpus);
    Fun.protect ~finally:(fun () -> ignore (set_affinity generator_cpus)) f
  end

let addr t = { Psph_net.Addr.host = "127.0.0.1"; port = t.port }

(* the port after "listening on HOST:" in a readiness line *)
let port_of_line line =
  let tag = "listening on " in
  let tl = String.length tag and ll = String.length line in
  let rec find i =
    if i + tl > ll then None
    else if String.sub line i tl = tag then Some (i + tl)
    else find (i + 1)
  in
  Option.bind (find 0) (fun start ->
      let stop =
        match String.index_from_opt line start ',' with
        | Some j -> j
        | None -> ll
      in
      let hostport = String.sub line start (stop - start) in
      Option.bind (String.rindex_opt hostport ':') (fun j ->
          int_of_string_opt
            (String.sub hostport (j + 1) (String.length hostport - j - 1))))

(* every child not yet stopped, so an early exit still stops them *)
let live = ref []

let spawn ?(cpus = all_cpus ()) ~psc ~name args =
  (* the child's stdout and stderr both go to a pipe read here; serve
     and route write nothing else than log lines to them *)
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    with_cpus cpus (fun () ->
        Unix.create_process psc (Array.of_list (psc :: args)) Unix.stdin wr wr)
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let rec wait_ready () =
    match input_line ic with
    | line -> (
        match port_of_line line with Some p -> p | None -> wait_ready ())
    | exception End_of_file ->
        failwith (Printf.sprintf "%s exited before listening" name)
  in
  live := (pid, name) :: !live;
  let port = wait_ready () in
  (* keep draining the pipe so the child never blocks on it *)
  ignore
    (Thread.create
       (fun () ->
         (try
            while true do
              ignore (input_line ic)
            done
          with _ -> ());
         close_in_noerr ic)
       ());
  { pid; port; name }

(* VmHWM from /proc, in MiB *)
let peak_rss_mb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) go

let rec waitpid_noeintr flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr flags pid

(* SIGTERM (the servers drain and exit), SIGKILL after 5 s; always reaped *)
let stop_pid pid =
  live := List.filter (fun (p, _) -> p <> pid) !live;
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 5. in
  let rec wait () =
    match waitpid_noeintr [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (waitpid_noeintr [] pid)
        end
        else begin
          Thread.delay 0.01;
          wait ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let stop t = stop_pid t.pid

let stop_all () = List.iter (fun (pid, _) -> stop_pid pid) !live

(* One idle-priority spinner per CPU in [cpus] (see perfbench_spin_idle):
   a server thread on those CPUs then wakes without the host first
   rescheduling a halted virtual CPU, a delay of tens of microseconds
   that varies with the host's load.  The spinners only use time the
   CPUs would spend idle, and are stopped like the servers. *)
let keep_awake cpus =
  List.iter
    (fun c ->
      let pid = spin_idle c in
      if pid > 0 then live := (pid, "idle spinner") :: !live)
    cpus

(* stop the children on any exit, and turn the usual termination signals
   into one *)
let () =
  at_exit stop_all;
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ]
