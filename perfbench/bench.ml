(* The repository benchmark: three seeded served workloads against real
   psc serve / psc route child processes on loopback.

     bench.exe --workload hot_binary|cold_numeric|routed_json --seed N
               --seconds S --trace 0|1 [--psc PATH] [--out DIR]

   --trace 0 prints the end-to-end metrics; --trace 1 the per-layer ones
   and writes the span trace to DIR (see perfbench/README.md).  The last
   line of stdout is one JSON object {"correct", "attempted", "failed",
   "metrics"}; the exit code is non-zero when an answer disagrees with
   the oracle or a request goes unaccounted for. *)

open Perfbench
open Workloads
module Codec = Psph_net.Codec
module Client = Psph_net.Client
module Router = Psph_net.Router
module Engine = Psph_engine.Engine
module Jsonl = Psph_obs.Jsonl
module Obs = Psph_obs.Obs

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* ------------------------------------------------------------------ *)
(* end-to-end run (--trace 0)                                          *)
(* ------------------------------------------------------------------ *)

let report wname outcome (f : figures) =
  Printf.printf "%s: %s; samples beyond the tail: %d\n" wname
    (Outcome.to_string outcome) f.min_beyond

let end_to_end ~psc ~seed ~seconds wname =
  let outcome, f, setup_s, rss =
    match wname with
    | "hot_binary" ->
        let items = Tables.hot () in
        let s, setup_s = repeated_setup Hot_w.setup_reps (Hot_w.setup ~psc items) in
        let sched = Hot_w.schedule ~seed ~seconds items in
        let win = Hot_w.window ~sched items s in
        let rss = rss_mb s in
        stop_session s;
        let late = Stats.sorted win.late in
        Printf.printf "generator lateness: p50 %.1f us, p99 %.1f us\n"
          (1e6 *. Stats.quantile late 50.) (1e6 *. Stats.quantile late 99.);
        (win.outcome, Hot_w.figures sched win, setup_s, rss)
    | "cold_numeric" | "routed_json" ->
        let kind, items =
          if wname = "cold_numeric" then (Closed_w.Cold, Tables.cold ())
          else (Closed_w.Routed, Tables.routed ())
        in
        let order = Tables.shuffle ~seed (Array.length items) in
        let s, setup_s =
          repeated_setup (Closed_w.setup_reps kind) (Closed_w.setup ~psc ~order kind items)
        in
        let win = Closed_w.window ~order ~seconds kind items s in
        let rss = rss_mb s in
        stop_session s;
        (win.outcome, Closed_w.figures kind items win, setup_s, rss)
    | other -> failwith ("unknown workload " ^ other)
  in
  report wname outcome f;
  ( outcome,
    [
      m "setup_s" "s" setup_s;
      m "p50_ms" "ms" (1000. *. f.p50);
      m "tail_ms" "ms" (1000. *. f.tail);
      m "throughput_qps" "1/s" f.throughput;
      m "rss_mb" "MiB" rss;
    ] )

(* ------------------------------------------------------------------ *)
(* server-side counters, read through the metrics wire op              *)
(* ------------------------------------------------------------------ *)

type server_metrics = { counters : (string * int) list; hists : (string * (int * float)) list }

let read_metrics (p : Proc.t) =
  let c = Client.create ~metrics:"bench.metrics_client" ~timeout_ms:10_000 (Proc.addr p) in
  let resp = Client.request c {|{"op":"metrics"}|} in
  Client.close c;
  let obj = match resp with Ok l -> Jsonl.of_string l | Error _ -> Jsonl.Null in
  let section name =
    match Option.bind (Jsonl.member "metrics" obj) (Jsonl.member name) with
    | Some (Jsonl.Obj kvs) -> kvs
    | _ -> []
  in
  let num v = match v with Some (Jsonl.Num f) -> f | _ -> 0. in
  {
    counters =
      List.filter_map
        (fun (k, v) -> Option.map (fun i -> (k, i)) (Jsonl.to_int_opt v))
        (section "counters");
    hists =
      List.map
        (fun (k, v) ->
          ( k,
            ( Option.value ~default:0 (Option.bind (Jsonl.member "count" v) Jsonl.to_int_opt),
              num (Jsonl.member "sum_s" v) ) ))
        (section "histograms");
  }

let metrics_of procs = List.map read_metrics procs

let counter ms name =
  List.fold_left
    (fun a m -> a + Option.value ~default:0 (List.assoc_opt name m.counters))
    0 ms

let hist ms name =
  List.fold_left
    (fun (c, s) m ->
      let c', s' = Option.value ~default:(0, 0.) (List.assoc_opt name m.hists) in
      (c + c', s +. s'))
    (0, 0.) ms

let dcounter m0 m1 name = float_of_int (counter m1 name - counter m0 name)

(* mean of a histogram's observations between two reads; 0 when none *)
let dmean m0 m1 name =
  let c0, s0 = hist m0 name and c1, s1 = hist m1 name in
  if c1 = c0 then 0. else (s1 -. s0) /. float_of_int (c1 - c0)

let ratio a b = if b = 0. then 0. else a /. b

let bench_counter name = Obs.counter_value (Obs.counter name)

(* ------------------------------------------------------------------ *)
(* traced run (--trace 1)                                              *)
(* ------------------------------------------------------------------ *)

(* what a workload's traced run hands to the metric computation *)
type traced = {
  outcome : Outcome.t;  (** both windows *)
  p50_untraced : float;
  p50_traced : float;
  late : float array;
      (** generator lateness in the untraced window (the end-to-end runs
          are untraced; spans allocate), open loop only *)
  req_bytes : float;  (** mean frame bytes per request *)
  reply_bytes : float;  (** mean frame bytes per reply *)
  replies : (Tables.item * Codec.reply) list;  (** both windows *)
  m0 : server_metrics list;  (** backend counters before the windows *)
  m1 : server_metrics list;  (** and after *)
  window_records : Obs.record list;
  replay_records : Obs.record list;
  cnt : Replay.counts;
  pool_wait : float;  (** seconds, mean *)
  client : int * int * int;
      (** bench client retries, reconnects beyond the first connect of
          each caller, stale responses — over the windows *)
  router : (float * float * float * float) option;
      (** hop seconds, forwarded, populate hints per miss, populate drops *)
}

let frame_len s = float_of_int (String.length s + Psph_net.Frame.header_size)

let mean_of f xs =
  if xs = [] then 0. else List.fold_left (fun a x -> a +. f x) 0. xs /. float_of_int (List.length xs)

(* windows: half the run untraced, half traced, the bench's own spans
   going to the memory sink *)
let traced_windows ~clients f =
  let c () =
    ( bench_counter "bench.client.retries",
      bench_counter "bench.client.reconnects",
      bench_counter "bench.client.stale_response" )
  in
  let r0, c0, s0 = c () in
  Obs.clear_records ();
  let u = f ~traced:false in
  Obs.set_sink Obs.Memory;
  let t = f ~traced:true in
  Obs.set_sink Obs.Null;
  let recs = Obs.records () in
  Obs.clear_records ();
  let r1, c1, s1 = c () in
  (u, t, recs, (r1 - r0, c1 - c0 - (2 * clients), s1 - s0))

let replay_with f =
  Obs.clear_records ();
  Obs.set_sink Obs.Memory;
  f ();
  Obs.set_sink Obs.Null;
  let recs = Obs.records () in
  Obs.clear_records ();
  recs

let pool_wait_mean n =
  let eng = Engine.create ~domains:1 () in
  let waits = Array.init n (fun _ -> Replay.pool_wait eng) in
  Engine.shutdown eng;
  Stats.mean waits

let traced_hot ~psc ~seed ~seconds =
  let items = Tables.hot () in
  let s = Hot_w.setup ~psc items () in
  let _, templates = s.state in
  let m0 = metrics_of s.procs in
  let run ~traced =
    let sched = Hot_w.schedule ~seed:(if traced then seed + 1 else seed) ~seconds items in
    (sched, Hot_w.window ~traced ~sched items s)
  in
  let (su, wu), (st, wt), window_records, client = traced_windows ~clients:0 run in
  let m1 = metrics_of s.procs in
  stop_session s;
  let cnt = Replay.counts () in
  let replay_records =
    replay_with (fun () ->
        let eng = Engine.create ~domains:0 () in
        Array.iter (fun (it : Tables.item) -> ignore (Engine.eval eng it.spec)) items;
        Array.iteri
          (fun i (a : Tables.arrival) ->
            if i < 5000 then Replay.binary ~path:`Hit cnt eng items.(a.key))
          su)
  in
  let sched = Array.append su st in
  let replies =
    List.concat_map
      (fun ((sc : Tables.arrival array), (w : Hot.window)) ->
        List.filter_map Fun.id
          (Array.to_list
             (Array.mapi (fun i r -> Option.map (fun r -> (items.(sc.(i).key), r)) r) w.replies)))
      [ (su, wu); (st, wt) ]
  in
  let n_ok = wu.outcome.ok + wt.outcome.ok in
  {
    outcome = Outcome.add wu.outcome wt.outcome;
    p50_untraced = (Hot_w.figures su wu).p50;
    p50_traced = (Hot_w.figures st wt).p50;
    late = wu.late;
    req_bytes = mean_of (fun (a : Tables.arrival) -> frame_len templates.(a.key)) (Array.to_list sched);
    reply_bytes = ratio (float_of_int (wu.reply_bytes + wt.reply_bytes)) (float_of_int n_ok);
    replies;
    m0;
    m1;
    window_records;
    replay_records;
    cnt;
    pool_wait = pool_wait_mean 2000;
    client;
    router = None;
  }

(* the in-process router against the live backends: hop time is its
   route time minus the request time the backends report for the same
   traffic *)
let router_replay backends (items : Tables.item array) order =
  let bm0 = metrics_of backends in
  let fwd0 = bench_counter "net.router.forwarded" in
  let pop0 = bench_counter "net.router.replica.populate" in
  let drop0 = bench_counter "net.router.replica.populate_drop" in
  let r = Router.create ~replication:2 (List.map Proc.addr backends) in
  let n = Array.length order in
  let misses = ref 0 and total = ref 0. in
  Array.iter
    (fun i ->
      let t0 = Obs.monotonic () in
      let resp = Router.route r items.(i).line in
      total := !total +. (Obs.monotonic () -. t0);
      match Codec.reply_of_json resp with
      | Some (Codec.Result { cached = false; betti = Some _; _ }) -> incr misses
      | _ -> ())
    order;
  (* let the populate hints land before the backends are read *)
  Thread.delay 0.2;
  Router.stop r;
  let bm1 = metrics_of backends in
  let _, backend_s = hist bm1 "net.server.request_s" in
  let _, backend_s0 = hist bm0 "net.server.request_s" in
  let f name v0 = float_of_int (bench_counter name - v0) in
  ( ((!total -. (backend_s -. backend_s0)) /. float_of_int n),
    f "net.router.forwarded" fwd0,
    ratio (f "net.router.replica.populate" pop0) (float_of_int !misses),
    f "net.router.replica.populate_drop" drop0 )

let traced_closed ~psc ~seed ~seconds kind =
  let items = match kind with Closed_w.Cold -> Tables.cold () | Routed -> Tables.routed () in
  let order = Tables.shuffle ~seed (Array.length items) in
  let router = ref None in
  let before_warm procs =
    if kind = Closed_w.Routed then
      router :=
        Some
          (router_replay
             (List.filter (fun (p : Proc.t) -> p.name = "psc serve") procs)
             items order)
  in
  let s = Closed_w.setup ~before_warm ~psc ~order kind items () in
  let backends = List.filter (fun (p : Proc.t) -> p.name = "psc serve") s.procs in
  let m0 = metrics_of backends in
  let run ~traced = Closed_w.window ~traced ~order ~seconds kind items s in
  let u, t, window_records, client = traced_windows ~clients:(Closed_w.callers kind) run in
  let m1 = metrics_of backends in
  stop_session s;
  let cnt = Replay.counts () in
  let replay_records =
    replay_with (fun () ->
        match kind with
        | Closed_w.Cold ->
            let eng = Engine.create ~domains:0 ~capacity:1 () in
            Array.iter (fun i -> Replay.binary ~path:`Miss cnt eng items.(i)) order
        | Routed ->
            let eng = Engine.create ~domains:0 () in
            Array.iter
              (fun (it : Tables.item) ->
                if it.want <> Codec.Connectivity then ignore (Engine.eval eng it.spec))
              items;
            Array.iter (fun i -> Replay.json cnt eng items.(i)) order)
  in
  let requests (w : Closed.window) = Array.to_list (Array.map (fun i -> items.(i)) w.items) in
  let replies =
    List.concat_map
      (fun (w : Closed.window) ->
        List.filter_map Fun.id
          (Array.to_list (Array.mapi (fun i r -> Option.map (fun r -> (items.(w.items.(i)), r)) r) w.replies)))
      [ u; t ]
  in
  let reply_len r =
    match kind with
    | Closed_w.Cold -> frame_len (Codec.encode_reply r)
    | Routed -> frame_len (Codec.json_of_reply ~id:None r)
  in
  let req_len (it : Tables.item) =
    match kind with
    | Closed_w.Cold ->
        frame_len (Codec.encode_request { Codec.id = 1; want = it.want; query = it.query })
    | Routed -> frame_len it.line
  in
  {
    outcome = Outcome.add u.outcome t.outcome;
    p50_untraced = (Closed_w.figures kind items u).p50;
    p50_traced = (Closed_w.figures kind items t).p50;
    late = [||];
    req_bytes = mean_of req_len (requests u @ requests t);
    reply_bytes = mean_of (fun (_, r) -> reply_len r) replies;
    replies;
    m0;
    m1;
    window_records;
    replay_records;
    cnt;
    pool_wait = pool_wait_mean 2000;
    client;
    router = !router;
  }

let per_layer (tr : traced) =
  let spans = Spans.of_records tr.replay_records in
  let totals = Spans.totals spans in
  let total name =
    match List.find_opt (fun (n, _, _, _) -> n = name) totals with
    | Some (_, _, d, _) -> d
    | None -> 0.
  in
  let reqs = float_of_int (max 1 tr.cnt.requests) in
  let us_per_req names = 1e6 *. List.fold_left (fun a n -> a +. total n) 0. names /. reqs in
  let self_of = Spans.self_time spans in
  let covered =
    List.fold_left
      (fun a (s : Spans.span) -> if s.name = "stages" then a +. (Spans.duration s -. self_of s) else a)
      0. spans
  in
  let handler_p50 =
    Stats.median
      (Array.of_list
         (List.filter_map
            (fun (s : Spans.span) -> if s.name = "handler" then Some (Spans.duration s) else None)
            spans))
  in
  let conn_answers =
    List.filter (fun ((it : Tables.item), _) -> it.want = Codec.Connectivity) tr.replies
  in
  let symbolic_steps =
    List.filter_map
      (fun (_, r) ->
        match r with
        | Codec.Result { solver = Some { Engine.tier = Engine.Symbolic; steps; _ }; _ } ->
            Some (float_of_int (Option.value ~default:0 steps))
        | _ -> None)
      conn_answers
  in
  let hits = dcounter tr.m0 tr.m1 "engine.cache.hits"
  and misses = dcounter tr.m0 tr.m1 "engine.cache.misses" in
  let computed_simplices =
    List.fold_left
      (fun a ((it : Tables.item), r) ->
        match r with
        | Codec.Result { solver = Some { Engine.tier = Engine.Numeric; _ }; _ } ->
            a +. float_of_int it.simplices
        | _ -> a)
      0. tr.replies
  in
  let hop, forwarded, per_miss, drops =
    Option.value ~default:(0., 0., 0., 0.) tr.router
  in
  let late = Stats.sorted tr.late in
  let retries, reconnects, stale = tr.client in
  [
    m "load.late_ms" "ms" (if late = [||] then 0. else 1000. *. Stats.quantile late 99.);
    m "load.sent" "count" (float_of_int tr.outcome.sent);
    m "load.failed" "count" (float_of_int (Outcome.failed tr.outcome));
    m "net.client.retries" "count" (float_of_int retries);
    m "net.client.reconnects" "count" (float_of_int reconnects);
    m "net.client.stale" "count" (float_of_int stale);
    m "net.codec.req_bytes" "B" tr.req_bytes;
    m "net.codec.reply_bytes" "B" tr.reply_bytes;
    m "net.codec.decode_us" "us" (us_per_req [ "net.frame.decode"; "net.codec.decode" ]);
    m "net.codec.encode_us" "us" (us_per_req [ "net.codec.encode"; "net.frame.encode" ]);
    m "net.server.request_us" "us" (1e6 *. dmean tr.m0 tr.m1 "net.server.request_s");
    m "net.server.transport_us" "us" (1e6 *. (tr.p50_untraced -. handler_p50));
    m "net.reactor.frames_per_wakeup" "ratio"
      (ratio
         (dcounter tr.m0 tr.m1 "net.server.reactor.frames")
         (dcounter tr.m0 tr.m1 "net.server.reactor.wakeups"));
    m "net.router.hop_us" "us" (1e6 *. hop);
    m "net.router.forwarded" "count" forwarded;
    m "net.replica.populate_per_miss" "ratio" per_miss;
    m "net.replica.populate_drop" "count" drops;
    m "engine.serve.json_us" "us"
      (if total "engine.eval_conn" = 0. then 0.
       else us_per_req [ "handler" ] -. us_per_req [ "engine.eval_conn" ]);
    m "engine.hit_us" "us" (us_per_req [ "engine.hit" ]);
    m "engine.hit_ratio" "ratio" (ratio hits (hits +. misses));
    m "engine.evictions" "count" (dcounter tr.m0 tr.m1 "engine.cache.evictions");
    m "engine.key_us" "us" (us_per_req [ "engine.key" ]);
    m "engine.pool.wait_us" "us" (1e6 *. tr.pool_wait);
    m "engine.build_ms" "ms" (1000. *. dmean tr.m0 tr.m1 "engine.build_s");
    m "engine.compute_ms" "ms" (1000. *. dmean tr.m0 tr.m1 "engine.compute_s");
    m "core.build_us" "us" (us_per_req [ "core.build" ]);
    m "core.simplices" "count"
      (ratio (float_of_int tr.cnt.simplices) (float_of_int tr.cnt.builds));
    m "core.symbolic_us" "us" (us_per_req [ "core.symbolic" ]);
    m "core.symbolic_steps" "count" (mean_of Fun.id symbolic_steps);
    m "core.symbolic_share" "ratio"
      (ratio (float_of_int (List.length symbolic_steps)) (float_of_int (List.length conn_answers)));
    m "topology.collapse_us" "us" (us_per_req [ "topology.collapse" ]);
    m "topology.collapse_removed_share" "ratio"
      (ratio (dcounter tr.m0 tr.m1 "solver.collapse.cells_removed") computed_simplices);
    m "topology.eliminate_us" "us" (us_per_req [ "topology.eliminate" ]);
    m "topology.columns" "count" (float_of_int tr.cnt.columns /. reqs);
    m "attr.unattributed_us" "us" (us_per_req [ "handler" ] -. (1e6 *. covered /. reqs));
    m "attr.trace_overhead_pct" "%"
      (100. *. ratio (tr.p50_traced -. tr.p50_untraced) tr.p50_untraced);
  ]

let write_trace ~out ~wname ~seed (tr : traced) =
  (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat out (Printf.sprintf "trace-%s-%d.jsonl" wname seed) in
  let oc = open_out path in
  List.iter
    (fun r -> output_string oc (Jsonl.to_string (Obs.record_to_json r) ^ "\n"))
    (tr.window_records @ tr.replay_records);
  close_out oc;
  Printf.printf "span trace: %s\n%-28s %8s %12s %12s\n" path "span" "count" "total_ms" "self_ms";
  List.iter
    (fun (name, n, d, s) -> Printf.printf "%-28s %8d %12.3f %12.3f\n" name n (1000. *. d) (1000. *. s))
    (Spans.totals (Spans.of_records tr.replay_records))

let traced ~psc ~seed ~seconds ~out wname =
  let half = seconds /. 2. in
  let tr =
    match wname with
    | "hot_binary" -> traced_hot ~psc ~seed ~seconds:half
    | "cold_numeric" -> traced_closed ~psc ~seed ~seconds:half Closed_w.Cold
    | "routed_json" -> traced_closed ~psc ~seed ~seconds:half Closed_w.Routed
    | other -> failwith ("unknown workload " ^ other)
  in
  write_trace ~out ~wname ~seed tr;
  Printf.printf "%s traced run: %s\n" wname (Outcome.to_string tr.outcome);
  (tr.outcome, per_layer tr)

(* ------------------------------------------------------------------ *)
(* output                                                              *)
(* ------------------------------------------------------------------ *)

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun x -> Printf.printf "  %-34s %16.6f %s\n" x.name x.value x.unit_) metrics;
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (num (if Float.is_finite x.value then x.value else 0.))
             x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let psc = ref "_build/default/bin/psc.exe" and out = ref "_perfbench" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME hot_binary|cold_numeric|routed_json");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--psc", Arg.Set_string psc, "PATH the psc executable");
      ("--out", Arg.Set_string out, "DIR where traced runs write their spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Proc.pin_generator ();
  (* hot_binary's latencies are tens of microseconds: keep its server's
     CPUs from halting between requests *)
  if !workload = "hot_binary" then Proc.keep_awake (Proc.server_cpus ());
  let seconds = float_of_int !seconds in
  let outcome, metrics =
    if !trace = 0 then end_to_end ~psc:!psc ~seed:!seed ~seconds !workload
    else traced ~psc:!psc ~seed:!seed ~seconds ~out:!out !workload
  in
  List.iter print_endline (List.rev !notes);
  let all = Outcome.add !setup_outcome outcome in
  Printf.printf "setup warm-ups: %s\noracle mismatches: %d\n"
    (Outcome.to_string !setup_outcome) !mismatches;
  let correct = !mismatches = 0 && Outcome.balanced all in
  print_result ~correct ~attempted:all.sent ~failed:(Outcome.failed all) metrics;
  if not correct then exit 1
