(* Open-loop load generator speaking wire protocol v2.

   Open-loop means the arrival schedule is fixed before the system
   answers anything: each connection draws Poisson inter-arrival gaps
   from a seeded RNG and every request has an *intended* start time that
   never shifts, however slowly the server responds.  Latency is
   measured from the intended start to the response (the wrk2
   coordinated-omission correction), so a stalled server shows up as
   honest multi-second latencies instead of a politely slowed generator
   hiding the stall.

   Each of [conns] worker threads owns one pipelined client.  The worker
   loop accumulates arrivals that have come due, fires them as one
   eval_many batch (bounded, so a backlog after a stall drains in
   chunks), and sleeps until the next intended arrival when nothing is
   due.  The key space is drawn from the model registry's spec space:
   psph shapes, every registered model at its default spec, and salted
   facet queries to pad out the requested keyspace — all hot ops, so a
   binary-codec connection never touches JSON.  Key choice per request
   is zipf(s)-skewed (s = 0 is uniform) over that table.

   Every request ends in exactly one taxonomy bucket — ok (hit or
   miss), server error (a well-formed {"ok":false}/Failed answer), or a
   transport error (timeout / connection / protocol) — which is what
   lets the soak harness assert "no silent loss" by arithmetic. *)

open Psph_obs
open Psph_net

type config = {
  rate : float;
  conns : int;
  pipeline_depth : int;
  duration_s : float;
  keyspace : int;
  zipf : float;
  seed : int;
  timeout_ms : int;
  retries : int;
}

type stats = {
  sent : int;
  ok : int;
  cached : int;
  server_errors : (string * int) list;
  timeouts : int;
  conn_errors : int;
  proto_errors : int;
  unresolved : int;
  latencies : float array;
  wall_s : float;
}

let completed s =
  s.ok
  + List.fold_left (fun a (_, n) -> a + n) 0 s.server_errors
  + s.timeouts + s.conn_errors + s.proto_errors

(* ------------------------------------------------------------------ *)
(* key space: queries drawn from the registry's spec space             *)
(* ------------------------------------------------------------------ *)

let queries ~keyspace =
  let base =
    List.concat_map
      (fun n ->
        List.map
          (fun values -> Codec.Psph { n; values })
          [ 2; 3; 4 ])
      [ 1; 2; 3 ]
    @ List.map
        (fun m ->
          Codec.Model
            {
              model = Pseudosphere.Model_complex.name_of m;
              spec =
                {
                  Pseudosphere.Model_complex.default_spec with
                  n = 2;
                  r = 1;
                };
            })
        (Pseudosphere.Model_complex.all ())
  in
  let facet i =
    (* salted so the load keys never collide with other traffic *)
    let s = 9000 + i in
    Codec.Facets
      [
        Printf.sprintf "0:i%d ; 1:i%d" s (s + 1);
        Printf.sprintf "1:i%d ; 2:i%d" (s + 1) (s + 2);
      ]
  in
  let nbase = List.length base in
  let qs =
    if nbase >= keyspace then List.filteri (fun i _ -> i < keyspace) base
    else base @ List.init (keyspace - nbase) facet
  in
  Array.of_list qs

(* zipf(s) over ranks 0..k-1 as a cumulative table; s = 0 is uniform *)
let zipf_cdf ~k ~s =
  let w = Array.init k (fun i -> 1. /. Float.pow (float_of_int (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0. w in
  let cdf = Array.make k 0. in
  let acc = ref 0. in
  for i = 0 to k - 1 do
    acc := !acc +. (w.(i) /. total);
    cdf.(i) <- !acc
  done;
  cdf.(k - 1) <- 1.;
  cdf

let sample_rank cdf rng =
  let u = Random.State.float rng 1. in
  (* first index with cdf.(i) >= u *)
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

(* ------------------------------------------------------------------ *)
(* workers                                                             *)
(* ------------------------------------------------------------------ *)

type metrics = {
  m_sent : Obs.counter;
  m_ok : Obs.counter;
  m_cached : Obs.counter;
  m_server_err : Obs.counter;
  m_timeout : Obs.counter;
  m_conn : Obs.counter;
  m_proto : Obs.counter;
  m_latency : Obs.histogram;
}

let make_metrics prefix =
  let c n = Obs.counter (prefix ^ "." ^ n) in
  {
    m_sent = c "sent";
    m_ok = c "ok";
    m_cached = c "cached";
    m_server_err = c "err.server";
    m_timeout = c "err.timeout";
    m_conn = c "err.connection";
    m_proto = c "err.protocol";
    m_latency = Obs.histogram (prefix ^ ".latency_s");
  }

type acc = {
  mutable a_sent : int;
  mutable a_ok : int;
  mutable a_cached : int;
  mutable a_server : (string * int) list;
  mutable a_timeout : int;
  mutable a_conn : int;
  mutable a_proto : int;
  mutable a_unresolved : int;
  mutable a_lat : float list;
}

let bucket_server acc msg =
  let key = if String.length msg > 60 then String.sub msg 0 60 else msg in
  let n = try List.assoc key acc.a_server with Not_found -> 0 in
  acc.a_server <- (key, n + 1) :: List.remove_assoc key acc.a_server

let worker cfg m addr qtab cdf wi acc =
  let rng = Random.State.make [| cfg.seed; wi |] in
  let client =
    Client.create ~metrics:"load.client" ~timeout_ms:cfg.timeout_ms
      ~retries:cfg.retries ~codec:`Binary
      ~pipeline_depth:cfg.pipeline_depth addr
  in
  let per_conn_rate = cfg.rate /. float_of_int (max 1 cfg.conns) in
  let mean_gap = 1. /. Float.max per_conn_rate 1e-6 in
  let draw_gap () =
    (* exponential inter-arrival: Poisson arrivals per connection *)
    let u = Random.State.float rng 1. in
    -.mean_gap *. log (1. -. u)
  in
  let t0 = Obs.monotonic () in
  let deadline = t0 +. cfg.duration_s in
  let next_arrival = ref (t0 +. draw_gap ()) in
  let batch_cap = max (4 * cfg.pipeline_depth) 64 in
  (* due arrivals, newest first: (intended_time, want, query) *)
  let due = ref [] in
  let ndue = ref 0 in
  let fire () =
    let items = List.rev !due in
    due := [];
    ndue := 0;
    let intended = Array.of_list (List.map (fun (t, _, _) -> t) items) in
    let reqs = List.map (fun (_, w, q) -> (w, q)) items in
    let lat = Array.make (Array.length intended) nan in
    let results =
      Client.eval_many
        ~on_latency:(fun i _service_s ->
          (* corrected latency: intended arrival -> response, so queueing
             behind a stalled server is charged to the server *)
          lat.(i) <- Obs.monotonic () -. intended.(i))
        client reqs
    in
    List.iteri
      (fun i r ->
        acc.a_sent <- acc.a_sent + 1;
        Obs.incr m.m_sent;
        match r with
        | Ok (Codec.Result { cached; _ }) ->
            acc.a_ok <- acc.a_ok + 1;
            Obs.incr m.m_ok;
            if cached then begin
              acc.a_cached <- acc.a_cached + 1;
              Obs.incr m.m_cached
            end;
            let l =
              if Float.is_nan lat.(i) then Obs.monotonic () -. intended.(i)
              else lat.(i)
            in
            acc.a_lat <- l :: acc.a_lat;
            Obs.observe m.m_latency l
        | Ok (Codec.Failed { message; _ }) ->
            Obs.incr m.m_server_err;
            bucket_server acc message
        | Error Client.Timeout ->
            acc.a_timeout <- acc.a_timeout + 1;
            Obs.incr m.m_timeout
        | Error (Client.Connection msg) ->
            acc.a_conn <- acc.a_conn + 1;
            Obs.incr m.m_conn;
            (* "internal:" marks a client-side accounting bug, not a
               network condition — the soak invariant wants zero *)
            if String.length msg >= 9 && String.sub msg 0 9 = "internal:"
            then acc.a_unresolved <- acc.a_unresolved + 1
        | Error (Client.Protocol _) ->
            acc.a_proto <- acc.a_proto + 1;
            Obs.incr m.m_proto)
      results
  in
  let rec loop () =
    let now = Obs.monotonic () in
    (* pull every arrival that has come due, up to the batch cap *)
    while !next_arrival <= now && !next_arrival < deadline && !ndue < batch_cap
    do
      let q = qtab.(sample_rank cdf rng) in
      due := (!next_arrival, Codec.Both, q) :: !due;
      incr ndue;
      next_arrival := !next_arrival +. draw_gap ()
    done;
    if !ndue > 0 then begin
      fire ();
      loop ()
    end
    else if !next_arrival < deadline then begin
      Thread.delay (Float.min (!next_arrival -. now) 0.05);
      loop ()
    end
  in
  loop ();
  Client.close client

let percentile lats p =
  let n = Array.length lats in
  if n = 0 then 0.
  else begin
    let a = Array.copy lats in
    Array.sort compare a;
    let idx =
      int_of_float (ceil (p /. 100. *. float_of_int n)) - 1
    in
    a.(max 0 (min (n - 1) idx))
  end

let run ?(metrics = "load") cfg addr =
  let m = make_metrics metrics in
  let qtab = queries ~keyspace:cfg.keyspace in
  let cdf = zipf_cdf ~k:(Array.length qtab) ~s:cfg.zipf in
  let accs =
    Array.init cfg.conns (fun _ ->
        {
          a_sent = 0;
          a_ok = 0;
          a_cached = 0;
          a_server = [];
          a_timeout = 0;
          a_conn = 0;
          a_proto = 0;
          a_unresolved = 0;
          a_lat = [];
        })
  in
  let t0 = Obs.monotonic () in
  let threads =
    Array.to_list
      (Array.mapi
         (fun wi acc ->
           Thread.create (fun () -> worker cfg m addr qtab cdf wi acc) ())
         accs)
  in
  List.iter Thread.join threads;
  let wall = Obs.monotonic () -. t0 in
  let merge f = Array.fold_left (fun a acc -> a + f acc) 0 accs in
  let server_errors =
    Array.fold_left
      (fun tbl acc ->
        List.fold_left
          (fun tbl (k, n) ->
            let prev = try List.assoc k tbl with Not_found -> 0 in
            (k, prev + n) :: List.remove_assoc k tbl)
          tbl acc.a_server)
      [] accs
  in
  let latencies =
    Array.of_list (Array.fold_left (fun l a -> a.a_lat @ l) [] accs)
  in
  {
    sent = merge (fun a -> a.a_sent);
    ok = merge (fun a -> a.a_ok);
    cached = merge (fun a -> a.a_cached);
    server_errors;
    timeouts = merge (fun a -> a.a_timeout);
    conn_errors = merge (fun a -> a.a_conn);
    proto_errors = merge (fun a -> a.a_proto);
    unresolved = merge (fun a -> a.a_unresolved);
    latencies;
    wall_s = wall;
  }
