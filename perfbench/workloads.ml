(* The three served workloads: their servers, their setup (spawn + warm,
   timed as setup_s) and their timed windows, plus the bookkeeping of
   the correctness oracle and the outcome taxonomy. *)

open Perfbench
module Codec = Psph_net.Codec
module Client = Psph_net.Client
module Obs = Psph_obs.Obs

(* ------------------------------------------------------------------ *)
(* oracle bookkeeping                                                  *)
(* ------------------------------------------------------------------ *)

let mismatches = ref 0

(* the first few oracle mismatches and server errors, for the report *)
let notes = ref []

let note s = if List.length !notes < 8 then notes := s :: !notes

(* an error reply is an explicit failure (an outcome), not a wrong
   answer: only answers go through the oracle *)
let check (it : Tables.item) reply =
  match reply with
  | None -> ()
  | Some (Codec.Failed { message; _ }) ->
      note (Printf.sprintf "server error on %s: %s" it.label message)
  | Some r -> (
      match Oracle.check it.truth r with
      | Ok () -> ()
      | Error e ->
          incr mismatches;
          note (Printf.sprintf "oracle mismatch on %s: %s" it.label e))

(* every request of the setup warm-ups, all repetitions: attempted and
   failed count them with the timed windows' *)
let setup_outcome = ref (Outcome.create ())

let count_setup o = setup_outcome := Outcome.add !setup_outcome o

(* ------------------------------------------------------------------ *)
(* servers and sessions                                                *)
(* ------------------------------------------------------------------ *)

let serve ?cpus ~psc args =
  Proc.spawn ?cpus ~psc ~name:"psc serve" ([ "serve"; "--listen"; "127.0.0.1:0" ] @ args)

let route ~psc backends =
  Proc.spawn ~psc ~name:"psc route"
    ([ "route"; "--listen"; "127.0.0.1:0"; "--replicas"; "2" ]
    @ List.concat_map
        (fun b -> [ "--backend"; Printf.sprintf "127.0.0.1:%d" b.Proc.port ])
        backends)

type 'a session = {
  procs : Proc.t list;  (** every server process *)
  entry : Proc.t;  (** the one clients talk to *)
  close : unit -> unit;
  state : 'a;  (** the workload's open connections *)
}

let stop_session s =
  s.close ();
  List.iter Proc.stop s.procs

let rss_mb s = List.fold_left (fun a p -> a +. Proc.peak_rss_mb p) 0. s.procs

(* run [setup] [reps] times, keeping the last session; the median
   duration is setup_s *)
let repeated_setup reps setup =
  let rec go k times =
    let t0 = Obs.monotonic () in
    let s = setup () in
    let dt = Obs.monotonic () -. t0 in
    if k <= 1 then (s, Stats.median (Array.of_list (dt :: times)))
    else begin
      stop_session s;
      go (k - 1) (dt :: times)
    end
  in
  go reps []

(* ------------------------------------------------------------------ *)
(* end-to-end figures of one window                                    *)
(* ------------------------------------------------------------------ *)

type figures = {
  p50 : float;  (** seconds *)
  tail : float;  (** seconds, at the workload's tail percentile *)
  throughput : float;  (** ok answers per second *)
  min_beyond : int;  (** fewest samples beyond the tail in a tail slice *)
}

(* the sorted ok latencies of requests [lo, hi); [lat i] is nan unless
   request i was answered *)
let ok_latencies lat lo hi =
  Stats.sorted
    (Array.of_list
       (List.filter (fun x -> not (Float.is_nan x)) (List.init (hi - lo) (fun j -> lat (lo + j)))))

(* [f] of every slice, summarised by [pick]: the lower quartile for a
   time, the upper one for a rate — the figure of a quiet slice, without
   the luck of the single best one *)
let over_slices pick f slices = pick (Array.of_list (List.map f slices))

(* ------------------------------------------------------------------ *)
(* hot_binary                                                          *)
(* ------------------------------------------------------------------ *)

module Hot_w = struct
  (* open loop at a fixed rate, far below capacity *)
  let rate = 10_000.

  let conns = 2

  (* set-ups per run, median reported: a hot set-up is about 10 ms,
     much of it process start-up jitter *)
  let setup_reps = 25

  let tail_p = 90.

  let setup ~psc items () =
    let p = serve ~cpus:(Proc.server_cpus ()) ~psc [] in
    let cs = List.init conns (fun _ -> Hot.connect (Proc.addr p)) in
    let templates = Array.map Hot.template items in
    let replies = Hot.warm (List.hd cs) templates in
    Array.iteri (fun i r -> check items.(i) r) replies;
    let o = Outcome.create () in
    o.sent <- Array.length replies;
    Array.iter
      (function
        | Some (Codec.Result _) -> o.ok <- o.ok + 1
        | Some (Codec.Failed _) -> o.server_error <- o.server_error + 1
        | None -> o.protocol <- o.protocol + 1)
      replies;
    count_setup o;
    {
      procs = [ p ];
      entry = p;
      close = (fun () -> List.iter Hot.close cs);
      state = (cs, templates);
    }

  let schedule ~seed ~seconds items =
    Tables.schedule ~seed ~rate ~duration:seconds ~conns
      ~keys:(Array.length items) ~zipf:Tables.hot_zipf

  let window ?traced ~sched items s =
    let cs, templates = s.state in
    let win = Hot.run ?traced cs templates sched in
    Array.iteri (fun i r -> check items.(sched.(i).Tables.key) r) win.Hot.replies;
    win

  (* 20 equal slices; p50 and tail are the lower quartiles of the
     per-slice figures.  At these microsecond latencies a 2-vCPU virtual
     machine's preemptions (milliseconds, in bursts lasting seconds)
     otherwise decide the figures; a slower program is slower in every
     slice. *)
  let n_slices = 20

  let figures (sched : Tables.arrival array) (win : Hot.window) =
    let n = Array.length sched in
    let slices =
      List.map
        (fun (lo, hi) -> ok_latencies (fun i -> win.latency.(i)) lo hi)
        (Stats.slices n n_slices)
    in
    {
      p50 = over_slices Stats.lower_quartile (fun s -> Stats.quantile s 50.) slices;
      tail = over_slices Stats.lower_quartile (fun s -> Stats.quantile s tail_p) slices;
      throughput = float_of_int win.outcome.ok /. (sched.(n - 1).at -. sched.(0).at);
      min_beyond =
        List.fold_left (fun m s -> min m (Stats.beyond (Array.length s) tail_p)) max_int slices;
    }
end

(* ------------------------------------------------------------------ *)
(* cold_numeric and routed_json                                        *)
(* ------------------------------------------------------------------ *)

module Closed_w = struct
  type kind = Cold | Routed

  (* cold_numeric runs one caller against a one-domain server on CPUs of
     its own, so a request's latency is its own solve: two callers on a
     two-domain server also measure the pairing of concurrent solves and
     their shared garbage collections *)
  let callers = function Cold -> 1 | Routed -> 2

  (* cold_numeric: the highest percentile keeping ten samples beyond it
     in a slice of 4 cycles (224 requests); it falls inside the block of
     the third most expensive spec, not on the edge of the fourth *)
  let tail_p = function Cold -> 95.5 | Routed -> 99.

  (* set-ups per run: a cold set-up solves a whole cycle (2 s) *)
  let setup_reps = function Cold -> 3 | Routed -> 9

  let cycles_per_slice kind items =
    Closed.cycles_per_slice ~cycle:(Array.length items) ~tail_p:(tail_p kind)

  let binary_caller (items : Tables.item array) addr =
    {
      Closed.open_ =
        (fun () ->
          Client.create ~metrics:"bench.client" ~codec:`Binary ~pipeline_depth:1
            ~timeout_ms:60_000 ~retries:0 addr);
      call =
        (fun c i ->
          let it = items.(i) in
          match Client.eval_many c [ (it.want, it.query) ] with
          | [ Ok r ] -> Ok r
          | [ Error e ] -> Error (Closed.of_client_error e)
          | _ -> Error `Protocol);
      close = Client.close;
    }

  let json_caller (items : Tables.item array) addr =
    {
      Closed.open_ =
        (fun () ->
          Client.create ~metrics:"bench.client" ~timeout_ms:60_000 ~retries:0 addr);
      call =
        (fun c i ->
          match Client.request c items.(i).line with
          | Ok line -> (
              match Codec.reply_of_json line with
              | Some r -> Ok r
              | None -> Error `Protocol)
          | Error e -> Error (Closed.of_client_error e));
      close = Client.close;
    }

  let caller kind items addr =
    match kind with
    | Cold -> binary_caller items addr
    | Routed -> json_caller items addr

  let check_window items (win : Closed.window) =
    Array.iteri (fun i r -> check items.(win.items.(i)) r) win.replies

  (* a working set larger than the cache: under LRU and a cyclic order
     over distinct keys every request misses *)
  let cold_cache_size items = max 1 (Array.length items / 2)

  (* one request of each kind the workload sends ([want] values, first
     in [order]), one at a time, straight to a fresh backend before the
     router and its health prober talk to it (perfbench/README.md,
     "Set-up") *)
  let prime ~order (items : Tables.item array) p =
    let kinds = ref [] in
    Array.iter
      (fun i ->
        if not (List.exists (fun j -> items.(j).want = items.(i).want) !kinds) then
          kinds := i :: !kinds)
      order;
    let reps = Array.of_list (List.rev !kinds) in
    let win =
      Closed.run ~fixed:(Array.length reps) ~callers:1 ~order:reps ~min_seconds:0.
        (json_caller items (Proc.addr p))
    in
    check_window items win;
    count_setup win.outcome

  (* spawn the servers, run [before_warm] on them, then one full untimed
     cycle: it warms the cache (the routed betti repeats), the
     connections and the allocators *)
  let setup ?(before_warm = ignore) ~psc ~order kind items () =
    let procs, entry =
      match kind with
      | Cold ->
          let p =
            serve ~cpus:(Proc.server_cpus ()) ~psc
              [ "--domains"; "1"; "--cache-size"; string_of_int (cold_cache_size items) ]
          in
          ([ p ], p)
      | Routed ->
          let b1 = serve ~psc [] in
          let b2 = serve ~psc [] in
          List.iter (prime ~order items) [ b1; b2 ];
          let r = route ~psc [ b1; b2 ] in
          ([ b1; b2; r ], r)
    in
    before_warm procs;
    let warm =
      Closed.run ~fixed:(Array.length order) ~callers:(callers kind) ~order ~min_seconds:0.
        (caller kind items (Proc.addr entry))
    in
    check_window items warm;
    count_setup warm.outcome;
    { procs; entry; close = ignore; state = () }

  let window ?traced ~order ~seconds kind items s =
    let win =
      Closed.run ?traced ~callers:(callers kind) ~order ~min_seconds:seconds
        ~slice_cycles:(cycles_per_slice kind items)
        (caller kind items (Proc.addr s.entry))
    in
    check_window items win;
    win

  (* slices of whole cycles, each the fewest that keep ten samples
     beyond the tail; figures are summarised over slices as on
     hot_binary.
     Within a slice, p50 is the mean of the per-cycle medians: the median
     of a few dozen distinct per-spec costs jumps between neighbouring
     specs, and averaging cycles damps the jump. *)
  let figures kind items (win : Closed.window) =
    let n = Array.length win.start and cycle = Array.length items in
    let per = cycles_per_slice kind items * cycle in
    let ok = ok_latencies (fun i -> win.stop.(i) -. win.start.(i)) in
    let slices = Stats.slices n (max 1 (n / per)) in
    let wall lo hi =
      let s = ref infinity and e = ref neg_infinity in
      for i = lo to hi - 1 do
        s := Float.min !s win.start.(i);
        if not (Float.is_nan win.stop.(i)) then e := Float.max !e win.stop.(i)
      done;
      !e -. !s
    in
    {
      p50 =
        over_slices Stats.lower_quartile
          (fun (lo, hi) ->
            Stats.mean
              (Array.of_list
                 (List.map
                    (fun (a, b) -> Stats.quantile (ok (lo + a) (lo + b)) 50.)
                    (Stats.slices (hi - lo) ((hi - lo) / cycle)))))
          slices;
      tail =
        over_slices Stats.lower_quartile
          (fun (lo, hi) -> Stats.quantile (ok lo hi) (tail_p kind))
          slices;
      throughput =
        over_slices Stats.upper_quartile
          (fun (lo, hi) -> float_of_int (Array.length (ok lo hi)) /. wall lo hi)
          slices;
      min_beyond =
        List.fold_left
          (fun m (lo, hi) -> min m (Stats.beyond (Array.length (ok lo hi)) (tail_p kind)))
          max_int slices;
    }
end
