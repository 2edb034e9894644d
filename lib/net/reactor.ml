(* Event loops for the v2 server.

   Ownership discipline: every descriptor belongs to exactly one loop
   thread, which performs all reads, all writes and the close.  Other
   threads only ever (a) append to a connection's output buffer under
   its lock and (b) poke the owning loop through its self-pipe.  That
   keeps the hot path lock-light — one small mutex around buffer
   appends — and makes the shutdown story tractable: a loop that stops
   spinning can flush and close everything it owns without negotiating
   with handler threads. *)

open Psph_obs

type failure = Oversized of int | Torn

type metrics = {
  loops_g : Obs.gauge;
  conns_g : Obs.gauge;
  wakeups : Obs.counter;
  frames : Obs.counter;
  frames_per_read : Obs.histogram;
}

type 'u conn = {
  fd : Unix.file_descr;
  reader : Frame.reader;
  lk : Mutex.t;  (** guards the output state and flags below *)
  obuf : Buffer.t;  (** bytes queued by [send], not yet staged *)
  mutable ohead : string;  (** bytes staged for writing *)
  mutable opos : int;  (** how much of [ohead] is already written *)
  mutable closing : bool;  (** flush-then-close requested *)
  mutable rclosed : bool;  (** no more reads (EOF, error, or closing) *)
  mutable dead : bool;  (** descriptor closed, deregistered *)
  u : 'u;
  owner : 'u loop;
}

and 'u loop = {
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  llk : Mutex.t;  (** guards [incoming] and [nwake] *)
  mutable incoming : 'u conn list;
  mutable nwake : bool;  (** a wake byte is already in the pipe *)
  mutable lconns : 'u conn list;  (** loop-private; only the loop touches it *)
  mutable lthread : Thread.t option;
  mutable ltid : int;  (** Thread.id of the loop thread, -1 before start *)
  wakeups : Obs.counter;  (** shared across loops; here so [send] needs no [t] *)
}

type 'u t = {
  loops : 'u loop array;
  rr : int Atomic.t;
  on_frame : 'u conn -> string -> unit;
  on_failure : 'u conn -> failure -> unit;
  on_eof : 'u conn -> unit;
  on_close : 'u conn -> unit;
  reading : bool Atomic.t;
  stopping : bool Atomic.t;
  nconns : int Atomic.t;
  m : metrics;
}

let user c = c.u
let active t = Atomic.get t.nconns

(* ------------------------------------------------------------------ *)
(* waking a loop                                                       *)
(* ------------------------------------------------------------------ *)

(* from the loop's own thread this is a no-op: the loop flushes output
   opportunistically before its next select, no pipe poke needed *)
let wake loop =
  if loop.ltid <> Thread.id (Thread.self ()) then begin
    Mutex.lock loop.llk;
    if not loop.nwake then begin
      loop.nwake <- true;
      Obs.incr loop.wakeups;
      (* the pipe is nonblocking: a full pipe means a wake is already
         pending, which is just as good as ours *)
      (try ignore (Unix.write loop.wake_w (Bytes.make 1 'w') 0 1)
       with Unix.Unix_error _ -> ())
    end;
    Mutex.unlock loop.llk
  end

(* ------------------------------------------------------------------ *)
(* per-connection output                                               *)
(* ------------------------------------------------------------------ *)

let opending c = String.length c.ohead - c.opos + Buffer.length c.obuf

let send c bytes =
  Mutex.lock c.lk;
  let accepted = not (c.closing || c.dead) in
  if accepted then Buffer.add_string c.obuf bytes;
  Mutex.unlock c.lk;
  if accepted then wake c.owner

let close c =
  Mutex.lock c.lk;
  let fresh = not (c.closing || c.dead) in
  if fresh then begin
    c.closing <- true;
    c.rclosed <- true
  end;
  Mutex.unlock c.lk;
  if fresh then wake c.owner

(* loop thread only: close the descriptor and deregister *)
let do_close t c =
  if not c.dead then begin
    c.dead <- true;
    (try Unix.close c.fd with _ -> ());
    c.owner.lconns <- List.filter (fun o -> o != c) c.owner.lconns;
    Atomic.decr t.nconns;
    Obs.gauge_add t.m.conns_g (-1.0);
    try t.on_close c with _ -> ()
  end

(* loop thread only: stage + write what we can without blocking; on a
   write error the peer is gone and buffered output is undeliverable *)
let write_step t c =
  Mutex.lock c.lk;
  if c.opos >= String.length c.ohead && Buffer.length c.obuf > 0 then begin
    c.ohead <- Buffer.contents c.obuf;
    c.opos <- 0;
    Buffer.clear c.obuf
  end;
  let s = c.ohead and off = c.opos in
  Mutex.unlock c.lk;
  let len = String.length s - off in
  if len > 0 then begin
    match Unix.write_substring c.fd s off len with
    | n -> c.opos <- c.opos + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error (_, _, _) -> do_close t c
  end

(* ------------------------------------------------------------------ *)
(* per-connection input                                                *)
(* ------------------------------------------------------------------ *)

let drain_frames t c =
  let delivered = ref 0 in
  let rec go () =
    if not (c.closing || c.dead) then
      match Frame.next c.reader with
      | Some payload ->
          incr delivered;
          Obs.incr t.m.frames;
          (try t.on_frame c payload with _ -> ());
          go ()
      | None -> ()
  in
  go ();
  !delivered

let eof t c =
  c.rclosed <- true;
  if Frame.pending c.reader > 0 then (try t.on_failure c Torn with _ -> ());
  try t.on_eof c with _ -> close c

let read_step t buf c =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> eof t c
  | n -> (
      match Frame.feed c.reader buf 0 n with
      | () -> Obs.observe t.m.frames_per_read (float_of_int (drain_frames t c))
      | exception Frame.Oversized len ->
          (* the stream is desynced past this point: deliver the frames
             decoded before the bad header, report, let the layer above
             answer, and take no more input *)
          c.rclosed <- true;
          ignore (drain_frames t c);
          (try t.on_failure c (Oversized len) with _ -> ()))
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error (_, _, _) -> eof t c

(* ------------------------------------------------------------------ *)
(* the loop                                                            *)
(* ------------------------------------------------------------------ *)

let drain_wake_pipe loop =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read loop.wake_r b 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ();
  (* reset after draining: a byte written between the drain and the
     reset stays in the pipe, so the next select still wakes — wakes are
     never lost, at worst duplicated *)
  Mutex.lock loop.llk;
  loop.nwake <- false;
  Mutex.unlock loop.llk

let adopt_incoming loop =
  Mutex.lock loop.llk;
  let fresh = loop.incoming in
  loop.incoming <- [];
  Mutex.unlock loop.llk;
  loop.lconns <- List.rev_append fresh loop.lconns

(* best-effort flush of everything still buffered, bounded so a peer
   that stopped reading cannot wedge shutdown *)
let final_flush t loop =
  let deadline = Obs.monotonic () +. 2.0 in
  let rec go () =
    let waiting =
      List.filter
        (fun c ->
          if not c.dead then write_step t c;
          (not c.dead) && opending c > 0)
        loop.lconns
    in
    if waiting <> [] && Obs.monotonic () < deadline then begin
      (match Unix.select [] (List.map (fun c -> c.fd) waiting) [] 0.05 with
      | _ -> ()
      | exception Unix.Unix_error _ -> ());
      go ()
    end
  in
  go ()

let loop_main t loop =
  loop.ltid <- Thread.id (Thread.self ());
  let buf = Bytes.create 65536 in
  let rec spin () =
    if Atomic.get t.stopping then begin
      adopt_incoming loop;
      final_flush t loop;
      List.iter (fun c -> do_close t c) loop.lconns
    end
    else begin
      adopt_incoming loop;
      (* close what asked for it and has nothing left to flush *)
      List.iter
        (fun c -> if c.closing && not c.dead && opending c = 0 then do_close t c)
        loop.lconns;
      let reading = Atomic.get t.reading in
      let rds, wrs =
        List.fold_left
          (fun (rds, wrs) c ->
            if c.dead then (rds, wrs)
            else
              ( (if reading && not c.rclosed then c.fd :: rds else rds),
                if opending c > 0 then c.fd :: wrs else wrs ))
          ([ loop.wake_r ], [])
          loop.lconns
      in
      (match Unix.select rds wrs [] 0.5 with
      | rrds, rwrs, _ ->
          if List.memq loop.wake_r rrds then drain_wake_pipe loop;
          List.iter
            (fun c ->
              if (not c.dead) && List.memq c.fd rrds then read_step t buf c)
            loop.lconns;
          (* opportunistic flush: responses produced by the reads above
             (and by handler threads meanwhile) go out in this same
             iteration instead of waiting for another select round *)
          List.iter
            (fun c ->
              if (not c.dead) && (opending c > 0 || List.memq c.fd rwrs) then
                write_step t c)
            loop.lconns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) ->
          (* a descriptor died under us between iterations: find it the
             slow way and drop it *)
          List.iter
            (fun c ->
              if not c.dead then
                match Unix.fstat c.fd with
                | _ -> ()
                | exception Unix.Unix_error _ -> do_close t c)
            loop.lconns);
      spin ()
    end
  in
  spin ()

(* ------------------------------------------------------------------ *)
(* lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let n_loops = 2

let create ~metrics ~on_frame ~on_failure ~on_eof ~on_close =
  let m =
    {
      loops_g = Obs.gauge (metrics ^ ".loops");
      conns_g = Obs.gauge (metrics ^ ".conns");
      wakeups = Obs.counter (metrics ^ ".wakeups");
      frames = Obs.counter (metrics ^ ".frames");
      frames_per_read = Obs.histogram (metrics ^ ".frames_per_read");
    }
  in
  let mk_loop _ =
    let wake_r, wake_w = Unix.pipe ~cloexec:true () in
    Unix.set_nonblock wake_r;
    Unix.set_nonblock wake_w;
    {
      wake_r;
      wake_w;
      llk = Mutex.create ();
      incoming = [];
      nwake = false;
      lconns = [];
      lthread = None;
      ltid = -1;
      wakeups = m.wakeups;
    }
  in
  Obs.gauge_set m.loops_g (float_of_int n_loops);
  {
    loops = Array.init n_loops mk_loop;
    rr = Atomic.make 0;
    on_frame;
    on_failure;
    on_eof;
    on_close;
    reading = Atomic.make true;
    stopping = Atomic.make false;
    nconns = Atomic.make 0;
    m;
  }

let start t =
  Array.iter
    (fun loop ->
      if loop.lthread = None then
        loop.lthread <- Some (Thread.create (fun () -> loop_main t loop) ()))
    t.loops

let add t ~user fd =
  if Atomic.get t.stopping then invalid_arg "Reactor.add: stopped";
  Unix.set_nonblock fd;
  (* small frames must not sit in Nagle's buffer waiting for an ACK *)
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let loop = t.loops.(Atomic.fetch_and_add t.rr 1 mod Array.length t.loops) in
  let c =
    {
      fd;
      reader = Frame.reader ();
      lk = Mutex.create ();
      obuf = Buffer.create 256;
      ohead = "";
      opos = 0;
      closing = false;
      rclosed = false;
      dead = false;
      u = user;
      owner = loop;
    }
  in
  Atomic.incr t.nconns;
  Obs.gauge_add t.m.conns_g 1.0;
  Mutex.lock loop.llk;
  loop.incoming <- c :: loop.incoming;
  Mutex.unlock loop.llk;
  wake loop;
  c

let stop_reading t =
  Atomic.set t.reading false;
  Array.iter wake t.loops

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    Array.iter wake t.loops;
    Array.iter
      (fun loop ->
        (match loop.lthread with
        | Some th ->
            Thread.join th;
            loop.lthread <- None
        | None ->
            (* never started: close whatever was queued *)
            adopt_incoming loop;
            List.iter (fun c -> do_close t c) loop.lconns);
        (try Unix.close loop.wake_r with _ -> ());
        try Unix.close loop.wake_w with _ -> ())
      t.loops
  end
