(* lib/load tests: the chaos proxy as a transparent relay and under
   each fault mode, the open-loop generator's exhaustive outcome
   taxonomy and seeded determinism, and a miniature in-process soak
   run with every invariant checked. *)

open Psph_net
open Psph_load
module Obs = Psph_obs.Obs
module E = Psph_engine.Engine
module Serve = Psph_engine.Serve

let check = Alcotest.check

let fail = Alcotest.fail

let bool, int = Alcotest.(bool, int)

let loopback port = { Addr.host = "127.0.0.1"; port }

let with_engine_server f =
  let engine = E.create ~domains:0 () in
  let handler = Serve.handle_line engine in
  match
    Server.listen ~handler
      ~bin_handler:(Codec.handle ~json:handler engine)
      (loopback 0)
  with
  | Error m -> fail m
  | Ok srv ->
      Server.start srv;
      Fun.protect
        ~finally:(fun () -> Server.stop srv)
        (fun () -> f (loopback (Server.port srv)))

let with_proxy ?(seed = 11) ?(faults = Chaos.no_faults) upstream f =
  match Chaos.create ~seed ~faults ~upstream (loopback 0) with
  | Error m -> fail m
  | Ok p -> Fun.protect ~finally:(fun () -> Chaos.stop p) (fun () -> f p)

let counter name = Obs.counter_value (Obs.counter name)

(* ------------------------------------------------------------------ *)
(* chaos proxy                                                         *)
(* ------------------------------------------------------------------ *)

let chaos_tests =
  [
    Alcotest.test_case "transparent relay: proxied bytes match direct ones"
      `Quick
      (fun () ->
        with_engine_server @@ fun addr ->
        with_proxy addr @@ fun p ->
        let line = {|{"op":"psph","n":1,"values":3}|} in
        let direct = Client.create ~retries:0 addr in
        (* ask direct twice so the answer is warm — the proxied ask must
           then be byte-identical, cached flag included *)
        ignore (Client.request direct line);
        let want = Client.request direct line in
        Client.close direct;
        let proxied = Client.create ~retries:0 (Chaos.addr p) in
        let got = Client.request proxied line in
        Client.close proxied;
        match (want, got) with
        | Ok w, Ok g -> check Alcotest.string "byte-identical" w g
        | _ -> fail "transparent relay dropped a request");
    Alcotest.test_case "faults disabled means faults injected nowhere"
      `Quick
      (fun () ->
        with_engine_server @@ fun addr ->
        with_proxy
          ~faults:
            {
              Chaos.delay_ms = Some (1000, 2000);
              throttle_bps = Some 1;
              reset_ppc = 1000;
              torn_ppc = 1000;
              corrupt_ppc = 1000;
            }
          addr
        @@ fun p ->
        (* never enabled: the nastiest schedule must be inert *)
        let c = Client.create ~timeout_ms:1000 ~retries:0 (Chaos.addr p) in
        (match Client.request c {|{"op":"models"}|} with
        | Ok r -> check bool "answered" true (String.length r > 0)
        | Error e -> fail (Client.error_message e));
        Client.close c);
    Alcotest.test_case "reset mode: retryable connection error, counted"
      `Quick
      (fun () ->
        with_engine_server @@ fun addr ->
        with_proxy
          ~faults:{ Chaos.no_faults with reset_ppc = 1000 }
          addr
        @@ fun p ->
        Chaos.set_enabled p true;
        let before = counter "chaos.resets" in
        let c = Client.create ~timeout_ms:1000 ~retries:0 (Chaos.addr p) in
        (match Client.request c {|{"op":"models"}|} with
        | Ok r -> fail ("expected a reset, got " ^ r)
        | Error e -> check bool "retryable" true (Client.is_retryable e));
        Client.close c;
        check bool "chaos.resets counted" true (counter "chaos.resets" > before));
    Alcotest.test_case "corruption mode: errors surface, nothing crashes"
      `Quick
      (fun () ->
        with_engine_server @@ fun addr ->
        with_proxy
          ~faults:{ Chaos.no_faults with corrupt_ppc = 1000 }
          addr
        @@ fun p ->
        Chaos.set_enabled p true;
        let before = counter "chaos.corrupted" in
        let c = Client.create ~timeout_ms:500 ~retries:0 (Chaos.addr p) in
        (* every chunk corrupted in both directions: the request may be
           garbled into a server-side error, the response may turn into
           frame garbage — any outcome is fine as long as the client
           returns instead of raising or hanging *)
        (match Client.request c {|{"op":"psph","n":2,"values":2}|} with
        | Ok _ -> ()
        | Error _ -> ());
        Client.close c;
        check bool "chaos.corrupted counted" true
          (counter "chaos.corrupted" > before));
    Alcotest.test_case "full partition: timeouts, then heal restores service"
      `Quick
      (fun () ->
        with_engine_server @@ fun addr ->
        with_proxy addr @@ fun p ->
        let c = Client.create ~timeout_ms:400 ~retries:0 (Chaos.addr p) in
        (match Client.request c {|{"op":"models"}|} with
        | Ok _ -> ()
        | Error e -> fail ("before partition: " ^ Client.error_message e));
        Chaos.set_partition p Chaos.Full;
        (match Client.request c {|{"op":"models"}|} with
        | Ok r -> fail ("expected starvation under partition, got " ^ r)
        | Error e -> check bool "retryable" true (Client.is_retryable e));
        Chaos.set_partition p Chaos.No_partition;
        let deadline = Obs.monotonic () +. 5. in
        let rec recovered () =
          match Client.request c {|{"op":"models"}|} with
          | Ok _ -> true
          | Error _ ->
              if Obs.monotonic () > deadline then false
              else begin
                Thread.delay 0.05;
                recovered ()
              end
        in
        check bool "healed" true (recovered ());
        Client.close c);
    Alcotest.test_case
      "half-open partition: requests arrive, responses vanish" `Quick
      (fun () ->
        with_engine_server @@ fun addr ->
        with_proxy addr @@ fun p ->
        Chaos.set_partition p Chaos.Half_open;
        let c = Client.create ~timeout_ms:400 ~retries:0 (Chaos.addr p) in
        (match Client.request c {|{"op":"models"}|} with
        | Ok r -> fail ("expected a starved response, got " ^ r)
        | Error e -> check bool "retryable" true (Client.is_retryable e));
        Chaos.set_partition p Chaos.No_partition;
        let deadline = Obs.monotonic () +. 5. in
        let rec recovered () =
          match Client.request c {|{"op":"models"}|} with
          | Ok _ -> true
          | Error _ ->
              if Obs.monotonic () > deadline then false
              else begin
                Thread.delay 0.05;
                recovered ()
              end
        in
        check bool "healed" true (recovered ());
        Client.close c);
    Alcotest.test_case "psc chaos survives a client hanging up mid-reply"
      `Quick
      (fun () ->
        (* separate processes: this test process ignores SIGPIPE itself,
           so only a [psc chaos] child shows whether the proxy does.  The
           upstream is a child too: behind an in-process server the
           replies reach the proxy too early to hit the closed socket,
           and the parent's proxy survives *)
        let serve =
          Psc_child.spawn
            [ "serve"; "--listen"; "127.0.0.1:0"; "--domains"; "0" ]
        in
        Fun.protect ~finally:(fun () -> ignore (Psc_child.stop serve))
        @@ fun () ->
        let _, _, upstream = serve in
        let ((_, _, proxy) as chaos) =
          Psc_child.spawn
            [ "chaos"; "--listen"; "127.0.0.1:0"; "--upstream";
              Addr.to_string upstream; "--start-disabled" ]
        in
        Fun.protect ~finally:(fun () -> ignore (Psc_child.stop chaos))
        @@ fun () ->
        (* 300 pipelined requests, then hang up before any reply: the
           replies the proxy relays meet a closed socket *)
        let wire =
          String.concat "" (List.init 300 (fun _ -> Frame.encode {|{"op":"models"}|}))
        in
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd
          (Unix.ADDR_INET (Unix.inet_addr_loopback, proxy.Addr.port));
        ignore (Unix.write_substring fd wire 0 (String.length wire));
        Unix.close fd;
        Thread.delay 0.3;
        (* a proxy killed by SIGPIPE refuses this connection *)
        let c = Client.create ~timeout_ms:2000 ~retries:0 proxy in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        match Client.request c {|{"op":"models"}|} with
        | Ok r -> check bool "still relays" true (String.length r > 0)
        | Error e -> fail ("relay after the hang-up: " ^ Client.error_message e));
  ]

(* ------------------------------------------------------------------ *)
(* load generator                                                      *)
(* ------------------------------------------------------------------ *)

let loadgen_tests =
  [
    Alcotest.test_case "outcome taxonomy is exhaustive (no silent loss)"
      `Quick
      (fun () ->
        with_engine_server @@ fun addr ->
        let cfg =
          {
            Loadgen.rate = 300.;
            conns = 2;
            pipeline_depth = 8;
            duration_s = 1.;
            keyspace = 16;
            zipf = 0.8;
            seed = 3;
            timeout_ms = 5000;
            retries = 2;
          }
        in
        let st = Loadgen.run ~metrics:"tload" cfg addr in
        check bool "generated traffic" true (st.Loadgen.sent > 100);
        check int "every request taxonomized" st.Loadgen.sent
          (Loadgen.completed st);
        check int "no unresolved internals" 0 st.Loadgen.unresolved;
        (* clean loopback: mostly ok, but a loaded test machine may time
           out a first-compute — the invariant is the arithmetic above,
           not a latency promise *)
        check bool "clean network: vast majority ok" true
          (st.Loadgen.ok * 10 >= st.Loadgen.sent * 9);
        check int "one corrected latency per ok answer" st.Loadgen.ok
          (Array.length st.Loadgen.latencies));
    Alcotest.test_case "query table: deterministic, sized, registry-wide"
      `Quick
      (fun () ->
        let a = Loadgen.queries ~keyspace:32 in
        let b = Loadgen.queries ~keyspace:32 in
        check int "sized" 32 (Array.length a);
        check bool "deterministic" true (a = b);
        let models =
          Array.to_list a
          |> List.filter_map (function
               | Codec.Model { model; _ } -> Some model
               | _ -> None)
        in
        List.iter
          (fun name ->
            check bool ("registry model " ^ name ^ " is in the key space")
              true
              (List.mem name models))
          (Pseudosphere.Model_complex.names ()));
    Alcotest.test_case "zipf sampling: seeded and actually skewed" `Quick
      (fun () ->
        let cdf = Loadgen.zipf_cdf ~k:16 ~s:1.2 in
        let draw seed n =
          let rng = Random.State.make [| seed |] in
          List.init n (fun _ -> Loadgen.sample_rank cdf rng)
        in
        check bool "same seed, same sequence" true (draw 9 200 = draw 9 200);
        check bool "different seeds diverge" true (draw 9 200 <> draw 10 200);
        let counts = Array.make 16 0 in
        List.iter (fun r -> counts.(r) <- counts.(r) + 1) (draw 1 2000);
        check bool "head rank beats tail rank" true
          (counts.(0) > 4 * (counts.(15) + 1));
        let u = Loadgen.zipf_cdf ~k:4 ~s:0. in
        check bool "s=0 is uniform" true
          (Array.for_all2
             (fun c want -> Float.abs (c -. want) < 1e-9)
             u
             [| 0.25; 0.5; 0.75; 1. |]));
  ]

(* ------------------------------------------------------------------ *)
(* soak (miniature, in-process backends)                               *)
(* ------------------------------------------------------------------ *)

(* an in-process stand-in for a psc serve child: killable and
   restartable on a stable port (restart builds a fresh engine — cold,
   like a restarted process) *)
let make_inproc_backend _i =
  let srv = ref None in
  let start port =
    let engine = E.create ~domains:0 () in
    let handler = Serve.handle_line engine in
    match
      Server.listen ~handler
        ~bin_handler:(Codec.handle ~json:handler engine)
        (loopback port)
    with
    | Error m -> Error m
    | Ok s ->
        Server.start s;
        srv := Some s;
        Ok (Server.port s)
  in
  match start 0 with
  | Error m -> Error m
  | Ok port ->
      let stop () =
        match !srv with
        | Some s ->
            Server.stop s;
            srv := None
        | None -> ()
      in
      Ok
        {
          Soak.baddr = loopback port;
          kill = stop;
          restart =
            (fun () ->
              match start port with
              | Ok _ -> ()
              | Error m -> Printf.eprintf "restart: %s\n%!" m);
          shutdown = stop;
        }

let soak_tests =
  [
    Alcotest.test_case "miniature soak: all invariants hold" `Slow (fun () ->
        let cfg =
          {
            Soak.backends = 2;
            replicas = 2;
            load =
              {
                Loadgen.rate = 150.;
                conns = 2;
                pipeline_depth = 8;
                duration_s = 1.2;
                keyspace = 24;
                zipf = 1.0;
                seed = 5;
                timeout_ms = 800;
                retries = 2;
              };
            faults =
              {
                Chaos.delay_ms = Some (1, 5);
                throttle_bps = None;
                reset_ppc = 10;
                torn_ppc = 3;
                corrupt_ppc = 0;
              };
            seed = 5;
            warm_s = 1.;
            (* generous: the suite shares the machine with other tests *)
            slo_p99_ms = 5000.;
            warm_floor = 0.5;
            kill_backend = true;
            converge_timeout_s = 15.;
            make_backend = make_inproc_backend;
          }
        in
        match Soak.run cfg with
        | Error m -> fail m
        | Ok r ->
            check int "three measured phases" 3 (List.length r.Soak.phases);
            check int "seed echoed for reproducibility" 5 r.Soak.seed;
            List.iter
              (fun i ->
                check bool
                  (Printf.sprintf "invariant %s: %s" i.Soak.i_name
                     i.Soak.i_detail)
                  true i.Soak.i_ok)
              r.Soak.invariants;
            check bool "run passed" true (Soak.passed r);
            (* the chaos phase really did see injected faults *)
            let chaos_total =
              List.fold_left ( + ) 0 (List.map snd r.Soak.chaos)
            in
            check bool "chaos counters moved" true (chaos_total > 0);
            (* the front has only the router's line handler, yet the
               generator's pipelined clients got the binary codec *)
            check bool "front served binary" true
              (counter "soak.front.binary_requests" > 0));
  ]

let suites =
  [
    ("load chaos proxy", chaos_tests);
    ("load generator", loadgen_tests);
    ("load soak", soak_tests);
  ]
