(* Invariant-checked soak runs: cluster + chaos proxies + load
   generator in one harness.

   Topology: N backends (child processes in `psc load --soak`,
   in-process servers in the test suite — the [make_backend] hook
   decides), each fronted by its own chaos proxy; a replicated Router
   pointed at the *proxies*; a front Server exposing the router; the
   open-loop generator driving the front over TCP.  Everything the
   router says to a backend — requests, probes, populate hints —
   crosses a proxy, so chaos reaches every internal protocol, not just
   the client path.

   Phases: warm (uniform skew, fills every key and lets populate hints
   replicate) -> clean (measured baseline) -> chaos (faults on; a
   half-open partition opens and heals; one backend is SIGKILLed and
   later restarted) -> heal (wait for the prober to re-converge) ->
   recovery (measured, everything healed).

   Invariants, checked from the generator's taxonomy and the router's
   liveness view at exit:

   - no silent loss: every generated request ended in exactly one
     taxonomy bucket (ok / server error / timeout / connection /
     protocol), and zero were flagged "internal:" (client accounting
     bug) — in every phase, chaos included.
   - prober convergence: after the last heal, every backend returns to
     alive within a bounded window.
   - warm floor: recovery-phase cached-hit rate stays above a floor —
     the replicas kept the killed backend's keys warm, and the restarted
     backend re-warms from traffic.
   - p99 SLO: clean and recovery phases meet the declared p99 bound
     (the chaos phase is reported, not judged — latency under injected
     5-50 ms delays is the experiment, not a regression).

   The chaos seed is printed and recorded in the result; re-running
   with the same seed replays the same per-connection fault schedule
   (see Chaos). *)

open Psph_obs
open Psph_net

type backend = {
  baddr : Addr.t;
  kill : unit -> unit;
  restart : unit -> unit;
  shutdown : unit -> unit;
}

type config = {
  backends : int;
  replicas : int;
  load : Loadgen.config;  (* duration_s = length of each measured phase *)
  faults : Chaos.faults;
  seed : int;
  warm_s : float;
  slo_p99_ms : float;
  warm_floor : float;
  kill_backend : bool;
  converge_timeout_s : float;
  make_backend : int -> (backend, string) result;
}

type phase = {
  p_name : string;
  p_stats : Loadgen.stats;
  p_rps : float;
  p_p50_ms : float;
  p_p99_ms : float;
}

type invariant = { i_name : string; i_ok : bool; i_detail : string }

type result = {
  phases : phase list;
  invariants : invariant list;
  seed : int;
  chaos : (string * int) list;
  converge_s : float;
}

let passed r = List.for_all (fun i -> i.i_ok) r.invariants

(* ------------------------------------------------------------------ *)
(* child-process backends (psc load --soak)                            *)
(* ------------------------------------------------------------------ *)

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let p =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  Unix.close fd;
  p

let wait_ready addr timeout_s =
  let c = Client.create ~timeout_ms:500 ~retries:0 addr in
  let deadline = Obs.monotonic () +. timeout_s in
  let rec go () =
    match Client.request c {|{"op":"models"}|} with
    | Ok _ ->
        Client.close c;
        true
    | Error _ ->
        if Obs.monotonic () > deadline then begin
          Client.close c;
          false
        end
        else begin
          Thread.delay 0.1;
          go ()
        end
  in
  go ()

(* reap without risking an infinite hang on a child that ignores TERM:
   poll WNOHANG for a grace period, then SIGKILL and reap for real *)
let reap pid grace_s =
  let deadline = Obs.monotonic () +. grace_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Obs.monotonic () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (try Unix.waitpid [] pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0))
        end
        else begin
          Thread.delay 0.05;
          go ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

let spawn_backend ?(psc = Sys.executable_name) ?(args = []) _i =
  let port = free_port () in
  let baddr = { Addr.host = "127.0.0.1"; port } in
  let argv =
    Array.of_list ([ psc; "serve"; "--listen"; Addr.to_string baddr ] @ args)
  in
  let start () = Unix.create_process psc argv Unix.stdin Unix.stdout Unix.stderr in
  let pid = ref (start ()) in
  if not (wait_ready baddr 15.) then begin
    (try Unix.kill !pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap !pid 0.;
    Error (Printf.sprintf "backend %s did not come up" (Addr.to_string baddr))
  end
  else
    Ok
      {
        baddr;
        kill =
          (fun () ->
            (try Unix.kill !pid Sys.sigkill with Unix.Unix_error _ -> ());
            reap !pid 0.);
        restart =
          (fun () ->
            pid := start ();
            ignore (wait_ready baddr 15.));
        shutdown =
          (fun () ->
            (try Unix.kill !pid Sys.sigterm with Unix.Unix_error _ -> ());
            reap !pid 5.);
      }

(* ------------------------------------------------------------------ *)
(* the run                                                             *)
(* ------------------------------------------------------------------ *)

let chaos_counter_names =
  [
    "conns"; "chunks"; "bytes"; "resets"; "torn"; "corrupted"; "delayed";
    "throttled"; "frozen"; "upstream_down";
  ]

let chaos_snapshot () =
  List.map
    (fun n -> (n, Obs.counter_value (Obs.counter ("chaos." ^ n))))
    chaos_counter_names

let mk_phase name (st : Loadgen.stats) =
  let ms a p = 1000. *. Loadgen.percentile a p in
  {
    p_name = name;
    p_stats = st;
    p_rps =
      (if st.wall_s > 0. then float_of_int (Loadgen.completed st) /. st.wall_s
       else 0.);
    p_p50_ms = ms st.latencies 50.;
    p_p99_ms = ms st.latencies 99.;
  }

let all_alive router = List.for_all snd (Router.backends router)

let wait_converged router timeout_s =
  let t0 = Obs.monotonic () in
  let deadline = t0 +. timeout_s in
  let rec go () =
    if all_alive router then Some (Obs.monotonic () -. t0)
    else if Obs.monotonic () > deadline then None
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

let note fmt =
  Format.kasprintf
    (fun s ->
      Obs.event ("soak." ^ s);
      Format.eprintf "soak: %s@." s)
    fmt

let run cfg =
  if cfg.backends < 1 then Error "soak: need at least one backend"
  else begin
    let cleanup = ref [] in
    let defer f = cleanup := f :: !cleanup in
    let finish () = List.iter (fun f -> try f () with _ -> ()) !cleanup in
    match
      (* backends first; fail fast if any refuses to come up *)
      let rec spawn i acc =
        if i >= cfg.backends then Ok (List.rev acc)
        else
          match cfg.make_backend i with
          | Error _ as e -> e
          | Ok b ->
              defer (fun () -> b.shutdown ());
              spawn (i + 1) (b :: acc)
      in
      spawn 0 []
    with
    | Error m ->
        finish ();
        Error m
    | Ok backends -> (
        let chaos0 = chaos_snapshot () in
        (* one proxy per backend, seeded per index for reproducibility *)
        let proxies =
          List.mapi
            (fun i b ->
              match
                Chaos.create ~seed:(cfg.seed + i) ~faults:cfg.faults
                  ~upstream:b.baddr
                  { Addr.host = "127.0.0.1"; port = 0 }
              with
              | Ok p ->
                  defer (fun () -> Chaos.stop p);
                  Some p
              | Error m ->
                  Format.eprintf "soak: proxy %d: %s@." i m;
                  None)
            backends
        in
        if List.exists Option.is_none proxies then begin
          finish ();
          Error "soak: failed to start a chaos proxy"
        end
        else begin
          let proxies = List.filter_map Fun.id proxies in
          let router =
            Router.create ~metrics:"soak.router" ~replication:cfg.replicas
              ~timeout_ms:1500 ~retries:0 ~check_period_ms:250
              (List.map Chaos.addr proxies)
          in
          defer (fun () -> Router.stop router);
          Router.start_health_checks router;
          match
            Server.listen ~metrics:"soak.front" ~max_conns:256
              ~dispatch:(Server.threaded_dispatch ())
              ~handler:(Router.route router)
              { Addr.host = "127.0.0.1"; port = 0 }
          with
          | Error m ->
              finish ();
              Error ("soak: front server: " ^ m)
          | Ok front ->
              defer (fun () -> Server.stop front);
              Server.start front;
              let front_addr =
                { Addr.host = "127.0.0.1"; port = Server.port front }
              in
              note "topology: %d backends, R=%d, front %s, seed %d"
                cfg.backends cfg.replicas
                (Addr.to_string front_addr)
                cfg.seed;
              (* warm: uniform skew so every key is computed and every
                 populate hint has time to land *)
              note "phase warm (%.1fs)" cfg.warm_s;
              let _warm =
                Loadgen.run ~metrics:"load"
                  { cfg.load with duration_s = cfg.warm_s; zipf = 0. }
                  front_addr
              in
              note "phase clean (%.1fs)" cfg.load.duration_s;
              let clean = Loadgen.run ~metrics:"load" cfg.load front_addr in
              (* chaos: faults on, then a scripted adversity timeline on
                 a driver thread while the generator keeps firing *)
              note "phase chaos (%.1fs)" cfg.load.duration_s;
              let d = cfg.load.duration_s in
              let victim_proxy =
                List.nth proxies (min 1 (List.length proxies - 1))
              in
              let victim_backend = List.hd backends in
              let do_kill = cfg.kill_backend && cfg.backends > 1 in
              let driver =
                Thread.create
                  (fun () ->
                    List.iter (fun p -> Chaos.set_enabled p true) proxies;
                    note "chaos on (faults enabled on %d proxies)"
                      (List.length proxies);
                    Thread.delay (0.25 *. d);
                    Chaos.set_partition victim_proxy Chaos.Half_open;
                    note "half-open partition opened";
                    Thread.delay (0.25 *. d);
                    Chaos.set_partition victim_proxy Chaos.No_partition;
                    note "partition healed";
                    if do_kill then begin
                      victim_backend.kill ();
                      note "backend 0 SIGKILLed"
                    end;
                    Thread.delay (0.25 *. d);
                    if do_kill then begin
                      victim_backend.restart ();
                      note "backend 0 restarted"
                    end)
                  ()
              in
              let chaos_phase =
                Loadgen.run ~metrics:"load" cfg.load front_addr
              in
              Thread.join driver;
              List.iter
                (fun p ->
                  Chaos.set_enabled p false;
                  Chaos.set_partition p Chaos.No_partition)
                proxies;
              note "chaos off; waiting for prober convergence";
              let converge = wait_converged router cfg.converge_timeout_s in
              let converge_s =
                match converge with Some s -> s | None -> -1.
              in
              (match converge with
              | Some s -> note "prober converged in %.2fs" s
              | None ->
                  note "prober did NOT converge within %.1fs"
                    cfg.converge_timeout_s);
              note "phase recovery (%.1fs)" cfg.load.duration_s;
              let recovery = Loadgen.run ~metrics:"load" cfg.load front_addr in
              let chaos1 = chaos_snapshot () in
              let chaos_counts =
                List.map
                  (fun (n, v) ->
                    (n, v - (try List.assoc n chaos0 with Not_found -> 0)))
                  chaos1
              in
              finish ();
              let phases =
                [
                  mk_phase "clean" clean;
                  mk_phase "chaos" chaos_phase;
                  mk_phase "recovery" recovery;
                ]
              in
              let inv name ok detail =
                { i_name = name; i_ok = ok; i_detail = detail }
              in
              let loss_inv =
                let lost =
                  List.map
                    (fun p ->
                      ( p.p_name,
                        p.p_stats.Loadgen.sent - Loadgen.completed p.p_stats,
                        p.p_stats.Loadgen.unresolved ))
                    phases
                in
                let bad =
                  List.filter (fun (_, l, u) -> l <> 0 || u <> 0) lost
                in
                inv "no_silent_loss"
                  (bad = [])
                  (if bad = [] then
                     Printf.sprintf
                       "every request taxonomized in all %d phases (%d total)"
                       (List.length phases)
                       (List.fold_left
                          (fun a p -> a + p.p_stats.Loadgen.sent)
                          0 phases)
                   else
                     String.concat "; "
                       (List.map
                          (fun (n, l, u) ->
                            Printf.sprintf
                              "%s: %d unaccounted, %d unresolved" n l u)
                          bad))
              in
              let converge_inv =
                inv "prober_converged"
                  (converge <> None)
                  (match converge with
                  | Some s ->
                      Printf.sprintf "all backends alive %.2fs after heal" s
                  | None ->
                      Printf.sprintf "not converged after %.1fs"
                        cfg.converge_timeout_s)
              in
              let warm_inv =
                let rate =
                  if recovery.Loadgen.ok = 0 then 0.
                  else
                    float_of_int recovery.Loadgen.cached
                    /. float_of_int recovery.Loadgen.ok
                in
                inv "warm_floor"
                  (rate >= cfg.warm_floor)
                  (Printf.sprintf "recovery cached-hit rate %.3f (floor %.2f)"
                     rate cfg.warm_floor)
              in
              let slo_inv =
                let bad =
                  List.filter
                    (fun p ->
                      p.p_name <> "chaos" && p.p_p99_ms > cfg.slo_p99_ms)
                    phases
                in
                inv "p99_slo"
                  (bad = [])
                  (String.concat ", "
                     (List.map
                        (fun p ->
                          Printf.sprintf "%s p99 %.1fms" p.p_name p.p_p99_ms)
                        phases)
                  ^ Printf.sprintf " (SLO %.0fms on clean phases)"
                      cfg.slo_p99_ms)
              in
              Ok
                {
                  phases;
                  invariants = [ loss_inv; converge_inv; warm_inv; slo_inv ];
                  seed = cfg.seed;
                  chaos = chaos_counts;
                  converge_s;
                }
        end)
  end

(* ------------------------------------------------------------------ *)
(* reporting                                                           *)
(* ------------------------------------------------------------------ *)

let phase_json p =
  let st = p.p_stats in
  Jsonl.Obj
    [
      ("name", Jsonl.Str p.p_name);
      ("sent", Jsonl.int st.Loadgen.sent);
      ("ok", Jsonl.int st.Loadgen.ok);
      ("cached", Jsonl.int st.Loadgen.cached);
      ( "server_errors",
        Jsonl.int
          (List.fold_left (fun a (_, n) -> a + n) 0 st.Loadgen.server_errors)
      );
      ("timeouts", Jsonl.int st.Loadgen.timeouts);
      ("conn_errors", Jsonl.int st.Loadgen.conn_errors);
      ("proto_errors", Jsonl.int st.Loadgen.proto_errors);
      ("rps", Jsonl.Num p.p_rps);
      ("p50_ms", Jsonl.Num p.p_p50_ms);
      ("p99_ms", Jsonl.Num p.p_p99_ms);
      ("wall_s", Jsonl.Num st.Loadgen.wall_s);
    ]

let to_json r =
  Jsonl.Obj
    [
      ("seed", Jsonl.int r.seed);
      ("phases", Jsonl.Arr (List.map phase_json r.phases));
      ( "invariants",
        Jsonl.Arr
          (List.map
             (fun i ->
               Jsonl.Obj
                 [
                   ("name", Jsonl.Str i.i_name);
                   ("ok", Jsonl.Bool i.i_ok);
                   ("detail", Jsonl.Str i.i_detail);
                 ])
             r.invariants) );
      ( "chaos",
        Jsonl.Obj (List.map (fun (n, v) -> (n, Jsonl.int v)) r.chaos) );
      ("converge_s", Jsonl.Num r.converge_s);
      ("passed", Jsonl.Bool (passed r));
    ]

let print_summary oc r =
  Printf.fprintf oc "soak seed %d\n" r.seed;
  List.iter
    (fun p ->
      Printf.fprintf oc
        "  %-8s %6d sent  %6d ok  %5.1f%% cached  %8.1f req/s  p50 %6.1fms  p99 %6.1fms\n"
        p.p_name p.p_stats.Loadgen.sent p.p_stats.Loadgen.ok
        (if p.p_stats.Loadgen.ok = 0 then 0.
         else
           100.
           *. float_of_int p.p_stats.Loadgen.cached
           /. float_of_int p.p_stats.Loadgen.ok)
        p.p_rps p.p_p50_ms p.p_p99_ms)
    r.phases;
  List.iter
    (fun (n, v) -> if v > 0 then Printf.fprintf oc "  chaos.%s = %d\n" n v)
    r.chaos;
  List.iter
    (fun i ->
      Printf.fprintf oc "  [%s] %s: %s\n"
        (if i.i_ok then "ok" else "FAIL")
        i.i_name i.i_detail)
    r.invariants;
  Printf.fprintf oc "invariants: %s\n" (if passed r then "ok" else "FAILED")
