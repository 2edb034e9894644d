(* Fault-injecting TCP man-in-the-middle.

   One listening socket, one upstream address; every accepted connection
   gets a matching upstream connection and two pump threads shoveling
   bytes, one per direction.  Faults apply per forwarded chunk, drawn
   from a per-connection-per-direction RNG seeded as
   [(seed, conn_index, direction)] — so the fault sequence each
   connection experiences is a pure function of the printed seed, however
   the OS interleaves the pumps.

   Fault menu (all per-chunk probabilities in parts-per-thousand, all
   gated on the [enabled] switch so a soak can run clean phases through
   the same proxy):

   - reset: close both sides with SO_LINGER 0, which makes the kernel
     send RST instead of FIN — the peer sees ECONNRESET mid-request,
     exactly what a crashed backend looks like.
   - torn frame: forward a strict prefix of the chunk, then reset.  The
     receiver's Frame reader is left mid-frame, which is the torn-frame
     case the client taxonomy classifies as retryable.
   - corruption: flip one byte (XOR with a nonzero mask) before
     forwarding.  Downstream this surfaces as a desynced or oversized
     frame; Frame.reader poisons rather than raising (see the fuzz
     tests).
   - delay: sleep a uniform [lo, hi] ms before forwarding.
   - throttle: pace each direction to a byte budget per second.

   Partitions are not per-chunk faults but a mode switch: [Full] freezes
   both directions, [Half_open] freezes only upstream->client (requests
   keep arriving at the backend, responses never come back — the
   nastier case).  Frozen pumps hold their chunk and deliver it after
   heal, so a healed connection resumes with an intact byte stream; the
   peer experiences the partition as unbounded latency, which is what
   makes timeouts (not parse errors) the symptom.  New connections are
   still accepted during a partition — TCP connect succeeding while data
   goes nowhere is precisely what distinguishes a partition from a dead
   host. *)

open Psph_obs
open Psph_net

type faults = {
  delay_ms : (int * int) option;
  throttle_bps : int option;
  reset_ppc : int;
  torn_ppc : int;
  corrupt_ppc : int;
}

let no_faults =
  { delay_ms = None; throttle_bps = None; reset_ppc = 0; torn_ppc = 0;
    corrupt_ppc = 0 }

type partition = No_partition | Half_open | Full

type metrics = {
  conns : Obs.counter;
  chunks : Obs.counter;
  bytes : Obs.counter;
  resets : Obs.counter;
  torn : Obs.counter;
  corrupted : Obs.counter;
  delayed : Obs.counter;
  throttled : Obs.counter;
  frozen : Obs.counter;
  upstream_down : Obs.counter;
}

(* both pumps share the pair; whoever decrements [live] to zero closes *)
type pair = {
  cfd : Unix.file_descr;
  ufd : Unix.file_descr;
  live : int Atomic.t;
  id : int;
}

type t = {
  lfd : Unix.file_descr;
  port : int;
  host : string;
  upstream : Addr.t;
  seed : int;
  faults : faults;
  enabled : bool Atomic.t;
  part : partition Atomic.t;
  stopping : bool Atomic.t;
  pairs : (int, pair) Hashtbl.t;
  pairs_lock : Mutex.t;
  mutable threads : Thread.t list;
  threads_lock : Mutex.t;
  m : metrics;
}

let make_metrics () =
  let c n = Obs.counter ("chaos." ^ n) in
  {
    conns = c "conns";
    chunks = c "chunks";
    bytes = c "bytes";
    resets = c "resets";
    torn = c "torn";
    corrupted = c "corrupted";
    delayed = c "delayed";
    throttled = c "throttled";
    frozen = c "frozen";
    upstream_down = c "upstream_down";
  }

let addr t = { Addr.host = t.host; port = t.port }

let set_enabled t b = Atomic.set t.enabled b

let set_partition t p = Atomic.set t.part p

(* RST, not FIN: linger time 0 discards the send queue and resets *)
let hard_close fd =
  (try Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0) with Unix.Unix_error _ -> ());
  try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let leave t pair =
  if Atomic.fetch_and_add pair.live (-1) = 1 then begin
    (try Unix.close pair.cfd with Unix.Unix_error _ -> ());
    (try Unix.close pair.ufd with Unix.Unix_error _ -> ());
    Mutex.lock t.pairs_lock;
    Hashtbl.remove t.pairs pair.id;
    Mutex.unlock t.pairs_lock
  end

let reset_pair t pair =
  Obs.incr t.m.resets;
  hard_close pair.cfd;
  hard_close pair.ufd

exception Reset

(* hold the chunk while this direction is partitioned; deliver on heal *)
let wait_thaw t dir =
  let frozen () =
    match Atomic.get t.part with
    | No_partition -> false
    | Full -> true
    | Half_open -> dir = `U2c
  in
  if frozen () then begin
    Obs.incr t.m.frozen;
    while frozen () && not (Atomic.get t.stopping) do
      Thread.delay 0.01
    done
  end

let write_all fd buf n =
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd buf !off (n - !off)
  done

let pump t pair dir src dst rng =
  let buf = Bytes.create 16384 in
  let f = t.faults in
  (try
     let continue = ref true in
     while !continue && not (Atomic.get t.stopping) do
       match Unix.read src buf 0 (Bytes.length buf) with
       | 0 ->
           (* half-close: propagate EOF downstream, keep the other
              direction flowing until it ends on its own *)
           (try Unix.shutdown dst Unix.SHUTDOWN_SEND
            with Unix.Unix_error _ -> ());
           continue := false
       | n ->
           Obs.incr t.m.chunks;
           Obs.incr ~by:n t.m.bytes;
           wait_thaw t dir;
           if not (Atomic.get t.enabled) then write_all dst buf n
           else begin
             let roll ppc = ppc > 0 && Random.State.int rng 1000 < ppc in
             if roll f.reset_ppc then begin
               reset_pair t pair;
               raise Reset
             end;
             let torn = roll f.torn_ppc && n > 1 in
             let n =
               if torn then begin
                 Obs.incr t.m.torn;
                 (* a strict prefix goes out, then the reset below
                    leaves the receiver mid-frame *)
                 1 + Random.State.int rng (n - 1)
               end
               else n
             in
             if roll f.corrupt_ppc then begin
               Obs.incr t.m.corrupted;
               let i = Random.State.int rng n in
               let mask = 1 + Random.State.int rng 255 in
               Bytes.set buf i
                 (Char.chr (Char.code (Bytes.get buf i) lxor mask))
             end;
             (match f.delay_ms with
             | Some (lo, hi) ->
                 Obs.incr t.m.delayed;
                 let ms = lo + Random.State.int rng (max 1 (hi - lo + 1)) in
                 Thread.delay (float_of_int ms /. 1000.)
             | None -> ());
             (match f.throttle_bps with
             | Some bps when bps > 0 ->
                 Obs.incr t.m.throttled;
                 Thread.delay (float_of_int n /. float_of_int bps)
             | _ -> ());
             write_all dst buf n;
             if torn then begin
               reset_pair t pair;
               raise Reset
             end
           end
     done
   with
  | Reset -> ()
  | Unix.Unix_error _ | Sys_error _ -> ());
  leave t pair

let spawn t f =
  let th = Thread.create f () in
  Mutex.lock t.threads_lock;
  t.threads <- th :: t.threads;
  Mutex.unlock t.threads_lock

let accept_loop t =
  let next_id = ref 0 in
  while not (Atomic.get t.stopping) do
    match Unix.accept t.lfd with
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> Thread.delay 0.01
    | cfd, _ -> (
        if Atomic.get t.stopping then
          try Unix.close cfd with Unix.Unix_error _ -> ()
        else
          match Addr.resolve t.upstream with
          | Error _ ->
              Obs.incr t.m.upstream_down;
              hard_close cfd;
              (try Unix.close cfd with Unix.Unix_error _ -> ())
          | Ok sa -> (
              let ufd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
              match Unix.connect ufd sa with
              | exception Unix.Unix_error (_, _, _) ->
                  (* backend gone: a reset is what the client would have
                     gotten from the dead host's kernel anyway *)
                  Obs.incr t.m.upstream_down;
                  (try Unix.close ufd with Unix.Unix_error _ -> ());
                  hard_close cfd;
                  (try Unix.close cfd with Unix.Unix_error _ -> ())
              | () ->
                  Obs.incr t.m.conns;
                  (try Unix.setsockopt cfd Unix.TCP_NODELAY true
                   with Unix.Unix_error _ -> ());
                  (try Unix.setsockopt ufd Unix.TCP_NODELAY true
                   with Unix.Unix_error _ -> ());
                  let id = !next_id in
                  incr next_id;
                  let pair = { cfd; ufd; live = Atomic.make 2; id } in
                  Mutex.lock t.pairs_lock;
                  Hashtbl.replace t.pairs id pair;
                  Mutex.unlock t.pairs_lock;
                  let rng_for dir =
                    Random.State.make
                      [| t.seed; id; (match dir with `C2u -> 0 | `U2c -> 1) |]
                  in
                  spawn t (fun () ->
                      pump t pair `C2u cfd ufd (rng_for `C2u));
                  spawn t (fun () ->
                      pump t pair `U2c ufd cfd (rng_for `U2c))))
  done

let backlog = 64

let create ~seed ~faults ~upstream listen =
  (* a pump writing to a side that already hung up must fail with EPIPE
     (the pair is torn down) rather than kill the proxy *)
  Addr.ignore_sigpipe ();
  match Addr.resolve listen with
  | Error m -> Error m
  | Ok sa -> (
      let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt lfd Unix.SO_REUSEADDR true;
      match
        Unix.bind lfd sa;
        Unix.listen lfd backlog
      with
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close lfd with Unix.Unix_error _ -> ());
          Error
            (Printf.sprintf "chaos: bind %s: %s" (Addr.to_string listen)
               (Unix.error_message e))
      | () ->
          let port =
            match Unix.getsockname lfd with
            | Unix.ADDR_INET (_, p) -> p
            | _ -> listen.Addr.port
          in
          let t =
            {
              lfd;
              port;
              host = listen.Addr.host;
              upstream;
              seed;
              faults;
              enabled = Atomic.make false;
              part = Atomic.make No_partition;
              stopping = Atomic.make false;
              pairs = Hashtbl.create 16;
              pairs_lock = Mutex.create ();
              threads = [];
              threads_lock = Mutex.create ();
              m = make_metrics ();
            }
          in
          spawn t (fun () -> accept_loop t);
          Ok t)

let stop t =
  if not (Atomic.get t.stopping) then begin
    Atomic.set t.stopping true;
    (* unblock the accept loop and every pump *)
    (try Unix.shutdown t.lfd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close t.lfd with Unix.Unix_error _ -> ());
    (* tear down live pairs without counting them as injected resets *)
    Mutex.lock t.pairs_lock;
    let pairs = Hashtbl.fold (fun _ p acc -> p :: acc) t.pairs [] in
    Mutex.unlock t.pairs_lock;
    List.iter
      (fun p ->
        hard_close p.cfd;
        hard_close p.ufd)
      pairs;
    let threads =
      Mutex.lock t.threads_lock;
      let ths = t.threads in
      t.threads <- [];
      Mutex.unlock t.threads_lock;
      ths
    in
    List.iter Thread.join threads
  end
