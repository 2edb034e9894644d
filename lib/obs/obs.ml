(* The one observability substrate: a global metric registry (get-or-create
   by name), ambient per-domain span nesting, and a single pluggable sink.

   Concurrency: counters and gauges are Atomics, histograms take a
   per-histogram mutex, the registry and the sink each take a global mutex.
   Everything on the hot path with the Null sink is a handful of atomic ops
   and two clock reads per span — cheap enough to leave on everywhere (the
   bench suite runs with instrumentation live and its numbers are within
   noise of the uninstrumented build). *)

type attrs = (string * Jsonl.t) list

let now () = Unix.gettimeofday ()

external monotonic_ns : unit -> int64 = "psph_obs_monotonic_ns"

(* durations are measured on this clock so a wall-clock step (NTP, VM
   migration) can never produce a negative span or histogram entry; [now]
   stays wall-clock and is used only for trace timestamps *)
let monotonic () = Int64.to_float (monotonic_ns ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* metric registry                                                     *)
(* ------------------------------------------------------------------ *)

type counter = { ticks : int Atomic.t }

type gauge = { level : float Atomic.t }

type histogram = {
  hlock : Mutex.t;
  mutable hcount : int;
  mutable hsum : float;
  mutable hmin : float;
  mutable hmax : float;
}

type histogram_stats = { count : int; sum : float; min : float; max : float }

type span_agg = { mutable scount : int; mutable stotal : float }

type span_stats = { spans : int; total_s : float }

let registry_lock = Mutex.create ()

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64

let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16

let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 64

let span_aggs : (string, span_agg) Hashtbl.t = Hashtbl.create 64

let registered tbl name make =
  Mutex.lock registry_lock;
  let m =
    match Hashtbl.find_opt tbl name with
    | Some m -> m
    | None ->
        let m = make name in
        Hashtbl.add tbl name m;
        m
  in
  Mutex.unlock registry_lock;
  m

let counter name =
  registered counters name (fun _ -> { ticks = Atomic.make 0 })

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.ticks by)

let counter_value c = Atomic.get c.ticks

let gauge name =
  registered gauges name (fun _ -> { level = Atomic.make 0.0 })

let gauge_set g v = Atomic.set g.level v

let rec gauge_add g delta =
  let seen = Atomic.get g.level in
  if not (Atomic.compare_and_set g.level seen (seen +. delta)) then
    gauge_add g delta

let gauge_value g = Atomic.get g.level

let histogram name =
  registered histograms name (fun _ ->
      {
        hlock = Mutex.create ();
        hcount = 0;
        hsum = 0.0;
        hmin = infinity;
        hmax = neg_infinity;
      })

let observe h v =
  Mutex.lock h.hlock;
  h.hcount <- h.hcount + 1;
  h.hsum <- h.hsum +. v;
  if v < h.hmin then h.hmin <- v;
  if v > h.hmax then h.hmax <- v;
  Mutex.unlock h.hlock

let time h f =
  let t0 = monotonic () in
  Fun.protect ~finally:(fun () -> observe h (monotonic () -. t0)) f

let histogram_stats h =
  Mutex.lock h.hlock;
  let s = { count = h.hcount; sum = h.hsum; min = h.hmin; max = h.hmax } in
  Mutex.unlock h.hlock;
  s

let record_span_agg name dur =
  let agg =
    registered span_aggs name (fun _ -> { scount = 0; stotal = 0.0 })
  in
  (* the registry mutex also serializes aggregate updates: span closes are
     rare next to the work they measure *)
  Mutex.lock registry_lock;
  agg.scount <- agg.scount + 1;
  agg.stotal <- agg.stotal +. dur;
  Mutex.unlock registry_lock

let span_stats name =
  Mutex.lock registry_lock;
  let s =
    match Hashtbl.find_opt span_aggs name with
    | Some a -> { spans = a.scount; total_s = a.stotal }
    | None -> { spans = 0; total_s = 0.0 }
  in
  Mutex.unlock registry_lock;
  s

(* ------------------------------------------------------------------ *)
(* sink                                                                *)
(* ------------------------------------------------------------------ *)

type record =
  | Span_record of {
      name : string;
      id : int;
      parent : int option;
      start : float;
      stop : float;
      attrs : attrs;
    }
  | Event_record of {
      name : string;
      time : float;
      span : int option;
      attrs : attrs;
    }

type sink = Null | Memory | Channel of out_channel

let sink_lock = Mutex.create ()

let the_sink = ref Null

let memory : record list ref = ref []

let set_sink s =
  Mutex.lock sink_lock;
  the_sink := s;
  Mutex.unlock sink_lock

let current_sink () = !the_sink

let records () = List.rev !memory

let clear_records () =
  Mutex.lock sink_lock;
  memory := [];
  Mutex.unlock sink_lock

let json_of_attrs attrs = Jsonl.Obj (List.rev attrs)

let opt_int = function None -> Jsonl.Null | Some i -> Jsonl.int i

let record_to_json = function
  | Span_record { name; id; parent; start; stop; attrs } ->
      Jsonl.Obj
        [
          ("t", Jsonl.Str "span");
          ("name", Jsonl.Str name);
          ("id", Jsonl.int id);
          ("parent", opt_int parent);
          ("start_s", Jsonl.Num start);
          ("dur_s", Jsonl.Num (stop -. start));
          ("attrs", json_of_attrs attrs);
        ]
  | Event_record { name; time; span; attrs } ->
      Jsonl.Obj
        [
          ("t", Jsonl.Str "event");
          ("name", Jsonl.Str name);
          ("time_s", Jsonl.Num time);
          ("span", opt_int span);
          ("attrs", json_of_attrs attrs);
        ]

let emit r =
  match !the_sink with
  | Null -> ()
  | _ ->
      Mutex.lock sink_lock;
      (match !the_sink with
      | Null -> ()
      | Memory -> memory := r :: !memory
      | Channel oc ->
          output_string oc (Jsonl.to_string (record_to_json r));
          output_char oc '\n');
      Mutex.unlock sink_lock

let with_trace_file path f =
  let oc = open_out path in
  let previous = !the_sink in
  set_sink (Channel oc);
  Fun.protect
    ~finally:(fun () ->
      set_sink previous;
      close_out oc)
    f

(* ------------------------------------------------------------------ *)
(* spans and events                                                    *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  parent : int option;
  start : float;  (** wall clock, for the trace timestamp *)
  start_mono : float;  (** monotonic, for the duration *)
  mutable sattrs : attrs;
}

(* the ambient context of a thread: the current live span, or a bare
   parent id carried across a queue/domain boundary by [with_parent] *)
type frame = Live of span | Ctx of int

let next_id = Atomic.make 1

(* Ambient state is per-thread, not just per-domain: the TCP server runs
   one handler systhread per connection inside one domain, and those
   threads must not trample each other's span nesting.  Each domain keeps
   its own table keyed by thread id (only its own threads touch it), under
   a domain-local mutex because systhread preemption can land mid-update. *)
let ambient_tbl : (int, frame) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let ambient_lock : Mutex.t Domain.DLS.key = Domain.DLS.new_key Mutex.create

let with_ambient f =
  let lock = Domain.DLS.get ambient_lock in
  let tbl = Domain.DLS.get ambient_tbl in
  Mutex.lock lock;
  let r = f tbl (Thread.id (Thread.self ())) in
  Mutex.unlock lock;
  r

let current_frame () = with_ambient (fun tbl tid -> Hashtbl.find_opt tbl tid)

let set_frame frame =
  with_ambient (fun tbl tid ->
      match frame with
      | Some fr -> Hashtbl.replace tbl tid fr
      | None -> Hashtbl.remove tbl tid)

let current_span_id () =
  match current_frame () with
  | Some (Live s) -> Some s.id
  | Some (Ctx id) -> Some id
  | None -> None

let with_frame frame f =
  let saved = current_frame () in
  set_frame frame;
  Fun.protect ~finally:(fun () -> set_frame saved) f

let with_parent parent f =
  with_frame (Option.map (fun id -> Ctx id) parent) f

let set_attr s k v = s.sattrs <- (k, v) :: s.sattrs

let with_span ?(attrs = []) name f =
  if !the_sink == Null then
    (* no sink: parent tracking and attrs are unobservable, so skip the
       ambient-frame bookkeeping (three mutexed table rounds) and keep
       only the aggregate — spans open on every cache-hit query, where
       that bookkeeping dominates the measured work *)
    let start_mono = monotonic () in
    let s =
      { id = 0; parent = None; start = 0.0; start_mono; sattrs = List.rev attrs }
    in
    Fun.protect
      ~finally:(fun () -> record_span_agg name (monotonic () -. start_mono))
      (fun () -> f s)
  else
  let parent = current_span_id () in
  let s =
    {
      id = Atomic.fetch_and_add next_id 1;
      parent;
      start = now ();
      start_mono = monotonic ();
      sattrs = List.rev attrs;
    }
  in
  let close () =
    (* duration on the monotonic clock; the trace [stop] is derived from
       it so [dur_s = stop - start] stays non-negative under clock steps *)
    let dur = monotonic () -. s.start_mono in
    record_span_agg name dur;
    if !the_sink != Null then
      emit
        (Span_record
           {
             name;
             id = s.id;
             parent = s.parent;
             start = s.start;
             stop = s.start +. dur;
             attrs = s.sattrs;
           })
  in
  Fun.protect ~finally:close (fun () -> with_frame (Some (Live s)) (fun () -> f s))

let event ?(attrs = []) name =
  if !the_sink != Null then
    emit
      (Event_record
         { name; time = now (); span = current_span_id (); attrs = List.rev attrs })

(* ------------------------------------------------------------------ *)
(* snapshot                                                            *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_stats) list;
  span_totals : (string * span_stats) list;
}

let sorted_bindings tbl value =
  Hashtbl.fold (fun name m acc -> (name, value m) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot () =
  (* histogram reads take per-histogram locks; do them outside the
     registry lock to keep the lock order one-way *)
  let counters, gauges, hs, span_totals =
    Mutex.lock registry_lock;
    let c = sorted_bindings counters (fun c -> Atomic.get c.ticks) in
    let g = sorted_bindings gauges (fun g -> Atomic.get g.level) in
    let h = sorted_bindings histograms Fun.id in
    let s =
      sorted_bindings span_aggs (fun a ->
          { spans = a.scount; total_s = a.stotal })
    in
    Mutex.unlock registry_lock;
    (c, g, h, s)
  in
  {
    counters;
    gauges;
    histograms = List.map (fun (n, h) -> (n, histogram_stats h)) hs;
    span_totals;
  }

let finite f = if Float.is_finite f then Jsonl.Num f else Jsonl.Null

let snapshot_json () =
  let s = snapshot () in
  Jsonl.Obj
    [
      ( "counters",
        Jsonl.Obj (List.map (fun (n, v) -> (n, Jsonl.int v)) s.counters) );
      ( "gauges",
        Jsonl.Obj (List.map (fun (n, v) -> (n, Jsonl.Num v)) s.gauges) );
      ( "histograms",
        Jsonl.Obj
          (List.map
             (fun (n, (h : histogram_stats)) ->
               ( n,
                 Jsonl.Obj
                   [
                     ("count", Jsonl.int h.count);
                     ("sum_s", Jsonl.Num h.sum);
                     ("min_s", finite h.min);
                     ("max_s", finite h.max);
                   ] ))
             s.histograms) );
      ( "spans",
        Jsonl.Obj
          (List.map
             (fun (n, (a : span_stats)) ->
               ( n,
                 Jsonl.Obj
                   [
                     ("count", Jsonl.int a.spans);
                     ("total_s", Jsonl.Num a.total_s);
                   ] ))
             s.span_totals) );
    ]

