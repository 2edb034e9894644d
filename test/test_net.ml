(* lib/net tests: framing (unit + qcheck fuzz over random chunking),
   client/server loopback against the real engine (byte-identical with
   the stdio serve loop, deadlines, oversized frames, span nesting
   across the socket), the v2 binary codec (qcheck round-trips, decoder
   fuzz, byte-equivalence with the JSON answers for every registered
   model), pipelining (ordering, id restoration, v1 fallback, binary
   from a line-handler-only server, stale responses), and router
   hashing + failover + whole-batch forwarding with a dying backend. *)

open Psph_net
module Obs = Psph_obs.Obs
module Jsonl = Psph_obs.Jsonl
module E = Psph_engine.Engine
module Serve = Psph_engine.Serve

let check = Alcotest.check

let fail = Alcotest.fail

let string, int, bool = Alcotest.(string, int, bool)

let option, list = Alcotest.(option, list)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_contains what line sub =
  if not (contains line sub) then
    fail (Printf.sprintf "%s: %S not found in %S" what sub line)

let loopback port = { Addr.host = "127.0.0.1"; port }

(* ------------------------------------------------------------------ *)
(* Addr                                                                *)
(* ------------------------------------------------------------------ *)

let addr_tests =
  [
    Alcotest.test_case "parse HOST:PORT" `Quick (fun () ->
        (match Addr.parse "127.0.0.1:8080" with
        | Ok a ->
            check string "host" "127.0.0.1" a.Addr.host;
            check int "port" 8080 a.Addr.port
        | Error m -> fail m);
        (match Addr.parse "somehost:0" with
        | Ok a -> check int "port 0 allowed" 0 a.Addr.port
        | Error m -> fail m);
        List.iter
          (fun s ->
            check bool (Printf.sprintf "%S rejected" s) true
              (Result.is_error (Addr.parse s)))
          [ "noport"; "h:"; ":80"; "h:abc"; "h:70000"; "h:-1" ]);
    Alcotest.test_case "to_string round-trips" `Quick (fun () ->
        match Addr.parse "10.0.0.1:443" with
        | Ok a -> check string "round-trip" "10.0.0.1:443" (Addr.to_string a)
        | Error m -> fail m);
  ]

(* ------------------------------------------------------------------ *)
(* Frame: unit                                                         *)
(* ------------------------------------------------------------------ *)

let drain r =
  let rec go acc =
    match Frame.next r with Some p -> go (p :: acc) | None -> List.rev acc
  in
  go []

(* a bare frame header declaring [len] payload bytes *)
let header len =
  let b = Bytes.create Frame.header_size in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.to_string b

let frame_tests =
  [
    Alcotest.test_case "encode/decode, byte-transparent" `Quick (fun () ->
        let payloads = [ ""; "{\"op\":\"stats\"}"; "with\nnewline\x00and nul" ] in
        let r = Frame.reader () in
        Frame.feed_string r (String.concat "" (List.map Frame.encode payloads));
        check (list string) "all frames" payloads (drain r);
        check int "clean boundary" 0 (Frame.pending r));
    Alcotest.test_case "byte-at-a-time feed" `Quick (fun () ->
        let wire = Frame.encode "slow" ^ Frame.encode "drip" in
        let r = Frame.reader () in
        String.iter (fun c -> Frame.feed_string r (String.make 1 c)) wire;
        check (list string) "frames" [ "slow"; "drip" ] (drain r));
    Alcotest.test_case "pending counts a torn frame" `Quick (fun () ->
        let wire = Frame.encode "abcdef" in
        let r = Frame.reader () in
        Frame.feed_string r (String.sub wire 0 7);
        check (option string) "incomplete" None (Frame.next r);
        check int "buffered bytes" 7 (Frame.pending r);
        Frame.feed_string r (String.sub wire 7 (String.length wire - 7));
        check (option string) "completed" (Some "abcdef") (Frame.next r);
        check int "boundary again" 0 (Frame.pending r));
    Alcotest.test_case "oversized encode refused" `Quick (fun () ->
        let over = Frame.max_frame + 1 in
        match Frame.encode (String.make over 'x') with
        | _ -> fail "encode should have raised"
        | exception Frame.Oversized n -> check int "offending length" over n);
    Alcotest.test_case "oversized header poisons the reader" `Quick (fun () ->
        let over = Frame.max_frame + 1 in
        let at = String.make Frame.max_frame 'x' in
        let at_max = Frame.reader () in
        Frame.feed_string at_max (Frame.encode at);
        check (option string) "exactly max ok" (Some at) (Frame.next at_max);
        let r = Frame.reader () in
        Frame.feed_string r (Frame.encode "12345678");
        check (option string) "frame ahead decodes" (Some "12345678")
          (Frame.next r);
        (match Frame.feed_string r (header over) with
        | _ -> fail "oversized header should have raised"
        | exception Frame.Oversized n -> check int "advertised length" over n);
        (* the stream is desynced: even a well-formed frame re-raises *)
        match Frame.feed_string r (Frame.encode "ok") with
        | _ -> fail "poisoned reader should keep raising"
        | exception Frame.Oversized n -> check int "original length" over n);
    Alcotest.test_case "sign-bit length is oversized" `Quick (fun () ->
        let r = Frame.reader () in
        match Frame.feed_string r "\x80\x00\x00\x01x" with
        | _ -> fail "negative length should have raised"
        | exception Frame.Oversized _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Frame: qcheck fuzz                                                  *)
(* ------------------------------------------------------------------ *)

let frame_props =
  let open QCheck2 in
  [
    Test.make ~name:"round-trip survives any chunking" ~count:300
      Gen.(pair (list_size (0 -- 8) (string_size (0 -- 300))) (1 -- 13))
      (fun (payloads, chunk) ->
        let wire = String.concat "" (List.map Frame.encode payloads) in
        let buf = Bytes.of_string wire in
        let r = Frame.reader () in
        let n = Bytes.length buf in
        let i = ref 0 in
        while !i < n do
          let len = min chunk (n - !i) in
          Frame.feed r buf !i len;
          i := !i + len
        done;
        drain r = payloads && Frame.pending r = 0);
    Test.make ~name:"torn frame completes on the next feed" ~count:300
      Gen.(pair (string_size (0 -- 200)) (0 -- 1000))
      (fun (payload, cut) ->
        let wire = Frame.encode payload in
        let k = cut mod String.length wire in
        let r = Frame.reader () in
        Frame.feed_string r (String.sub wire 0 k);
        let torn = Frame.next r = None && Frame.pending r = k in
        Frame.feed_string r (String.sub wire k (String.length wire - k));
        torn && Frame.next r = Some payload && Frame.pending r = 0);
    (* the chaos proxy's corruption mode in miniature: flip one byte
       anywhere in a valid multi-frame wire (length header or body).
       The reader may desync (wait forever for bytes that never come),
       deliver a different payload, or poison on an insane length — but
       it must never raise anything but Oversized and never loop *)
    Test.make ~name:"single-byte corruption: poison or desync, never a crash"
      ~count:500
      Gen.(
        tup4
          (list_size (1 -- 5) (string_size (0 -- 120)))
          nat nat (1 -- 13))
      (fun (payloads, bytepos, mask, chunk) ->
        let wire = String.concat "" (List.map Frame.encode payloads) in
        let buf = Bytes.of_string wire in
        let n = Bytes.length buf in
        let i = bytepos mod n in
        Bytes.set buf i
          (Char.chr (Char.code (Bytes.get buf i) lxor (1 + (mask mod 255))));
        let r = Frame.reader () in
        let off = ref 0 in
        let ok = ref true in
        (try
           while !off < n do
             let len = min chunk (n - !off) in
             (match Frame.feed r buf !off len with
             | () -> ()
             | exception Frame.Oversized _ -> () (* poisoned: legal *));
             off := !off + len
           done;
           let rec drain () =
             match Frame.next r with
             | Some _ -> drain ()
             | None -> ()
             | exception Frame.Oversized _ -> ()
           in
           drain ()
         with _ -> ok := false);
        !ok);
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Client/Server loopback                                              *)
(* ------------------------------------------------------------------ *)

let with_server ?deadline_s ?dispatch ?bin_handler handler f =
  match
    Server.listen ?deadline_s ?dispatch ?bin_handler ~handler
      (loopback 0)
  with
  | Error m -> fail m
  | Ok srv ->
      Server.start srv;
      Fun.protect
        ~finally:(fun () -> Server.stop srv)
        (fun () -> f srv (loopback (Server.port srv)))

(* the engine server as [psc serve] runs it: binary codec installed *)
let with_v2_server ?metrics ?dispatch engine f =
  let handler = Serve.handle_line engine in
  match
    Server.listen ?metrics ?dispatch ~handler
      ~bin_handler:(Codec.handle ~json:handler engine)
      (loopback 0)
  with
  | Error m -> fail m
  | Ok srv ->
      Server.start srv;
      Fun.protect
        ~finally:(fun () -> Server.stop srv)
        (fun () -> f srv (loopback (Server.port srv)))

(* a loopback listener whose accept thread hands each connection, in
   turn, to [serve_conn] until [f] returns *)
let with_fake_backend serve_conn f =
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 8;
  let port =
    match Unix.getsockname lfd with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  let th =
    Thread.create
      (fun () ->
        let rec accept () =
          match Unix.accept lfd with
          | exception Unix.Unix_error _ -> ()
          | c, _ ->
              serve_conn c;
              accept ()
        in
        accept ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.shutdown lfd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      Thread.join th)
    (fun () -> f (loopback port))

(* a relay in front of [upstream] that garbles the first frame its first
   connection gets back — the hello grant, whose ["binary"] turns into
   ["binarz"] — and passes every other byte through *)
let with_garbling_relay upstream f =
  let stop = Atomic.make false in
  let garble s =
    let rec find i =
      if i + 8 > String.length s then s
      else if String.sub s i 8 = {|"binary"|} then
        String.mapi (fun j c -> if j = i + 6 then 'z' else c) s
      else find (i + 1)
    in
    find 0
  in
  let write fd s =
    let off = ref 0 in
    while !off < String.length s do
      off := !off + Unix.write_substring fd s !off (String.length s - !off)
    done
  in
  (* the client sends nothing after its hello until the grant arrives,
     so the first frame back is the first downstream payload whole *)
  let relay cfd ufd ~first =
    let buf = Bytes.create 4096 in
    let grant = ref (if first then Some (Frame.reader ()) else None) in
    let forward fd =
      let n = Unix.read fd buf 0 (Bytes.length buf) in
      (if n > 0 then
         if fd == cfd then write ufd (Bytes.sub_string buf 0 n)
         else
           match !grant with
           | None -> write cfd (Bytes.sub_string buf 0 n)
           | Some r -> (
               Frame.feed r buf 0 n;
               match Frame.next r with
               | Some p ->
                   grant := None;
                   write cfd (Frame.encode (garble p))
               | None -> ()));
      n > 0
    in
    let rec loop () =
      if not (Atomic.get stop) then
        match Unix.select [ cfd; ufd ] [] [] 0.1 with
        | [], _, _ -> loop ()
        | ready, _, _ -> if List.for_all forward ready then loop ()
    in
    (try loop () with Unix.Unix_error _ -> ());
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ cfd; ufd ]
  in
  let first = ref true in
  let relays = ref [] in
  let serve_conn cfd =
    let ufd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect ufd
      (Unix.ADDR_INET (Unix.inet_addr_loopback, upstream.Addr.port));
    let first_conn = !first in
    first := false;
    relays :=
      Thread.create (fun () -> relay cfd ufd ~first:first_conn) () :: !relays
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      List.iter Thread.join !relays)
  @@ fun () -> with_fake_backend serve_conn f

let with_client ?(timeout_ms = 5000) ?(retries = 1) ?(backoff_ms = 1) addr f =
  let c = Client.create ~timeout_ms ~retries ~backoff_ms addr in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* a bare loopback socket: [send] writes raw bytes, [recv] reads one
   frame's payload *)
let with_raw_conn addr f =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, addr.Addr.port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
  let send s = ignore (Unix.write_substring fd s 0 (String.length s)) in
  let r = Frame.reader () in
  let buf = Bytes.create 4096 in
  let rec recv () =
    match Frame.next r with
    | Some p -> p
    | None ->
        let n = Unix.read fd buf 0 (Bytes.length buf) in
        if n = 0 then fail "server closed";
        Frame.feed r buf 0 n;
        recv ()
  in
  f send recv

let with_engine f =
  let engine = E.create ~domains:0 () in
  Fun.protect ~finally:(fun () -> E.shutdown engine) (fun () -> f engine)

let request_ok c line =
  match Client.request c line with
  | Ok resp -> resp
  | Error e -> fail (Client.error_message e)

(* a loopback port with nothing listening: bind to 0, read it back, close *)
let dead_port () =
  let s = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let p =
    match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  Unix.close s;
  p

let loopback_tests =
  [
    Alcotest.test_case "byte-identical with Serve.handle_line" `Quick (fun () ->
        with_engine @@ fun engine ->
        with_server (Serve.handle_line engine) @@ fun _srv addr ->
        with_client addr @@ fun c ->
        let line = {|{"op":"psph","n":2,"values":2,"id":7}|} in
        ignore (Serve.handle_line engine line);
        (* warm: both the direct call and the TCP one must now say cached *)
        let direct = Serve.handle_line engine line in
        let resp = request_ok c line in
        check string "same bytes over TCP" direct resp;
        check_contains "success" resp {|"ok":true|};
        check_contains "warm" resp {|"cached":true|};
        check_contains "id echoed" resp {|"id":7|});
    Alcotest.test_case "keep-alive: many ops on one connection" `Quick
      (fun () ->
        with_engine @@ fun engine ->
        with_server (Serve.handle_line engine) @@ fun _srv addr ->
        with_client addr @@ fun c ->
        check_contains "models op" (request_ok c {|{"op":"models"}|}) "async";
        check_contains "bad op is a response, not an error"
          (request_ok c {|{"op":"nope","id":1}|})
          {|"ok":false|};
        check_contains "betti after an error"
          (request_ok c {|{"op":"betti","facets":["0:i0 ; 1:i1"]}|})
          {|"betti":|});
    Alcotest.test_case "deadline exceeded answers an error" `Quick (fun () ->
        with_server ~deadline_s:0.005
          (fun _ ->
            Thread.delay 0.05;
            {|{"ok":true,"late":true}|})
        @@ fun _srv addr ->
        (with_client addr @@ fun c ->
         let resp = request_ok c {|{"op":"x","id":9}|} in
         check_contains "deadline error" resp "deadline exceeded";
         check_contains "id echoed" resp {|"id":9|});
        (* a binary connection gets the binary error shape: the same
           handler, through the binary handler the server derives *)
        with_raw_conn addr @@ fun send recv ->
        send (Frame.encode {|{"op":"hello","version":2,"codec":"binary"}|});
        check_contains "binary granted" (recv ()) {|"codec":"binary"|};
        send
          (Frame.encode
             (Codec.encode_request
                { Codec.id = 77; want = Codec.Both;
                  query = Codec.Psph { n = 1; values = 2 } }));
        match Codec.decode_reply (recv ()) with
        | Ok (Codec.Failed { id; message }) ->
            check int "under its own id" 77 id;
            check_contains "deadline error" message "deadline exceeded"
        | Ok _ -> fail "the late result was delivered"
        | Error m -> fail ("not a binary reply: " ^ m));
    Alcotest.test_case "an unframeable error still answers in its slot" `Quick
      (fun () ->
        (* the error reply echoes an id that, with it, is over the frame
           bound: the short error without the id takes the slot, so the
           next reply is not read as this request's *)
        with_engine @@ fun engine ->
        with_v2_server engine @@ fun _srv addr ->
        let huge = {|{"op":"nope","id":"|} ^ String.make 16_777_190 'x' ^ {|"}|} in
        (with_raw_conn addr @@ fun send recv ->
         send (Frame.encode huge);
         send (Frame.encode {|{"op":"nope","id":2}|});
         let first = recv () in
         check_contains "the oversized request is refused" first {|"ok":false|};
         check bool "without its id" false (contains first {|"id"|});
         check_contains "then the next request's answer" (recv ()) {|"id":2|});
        (* binary: a Failed under the escape's transport id *)
        with_raw_conn addr @@ fun send recv ->
        send (Frame.encode {|{"op":"hello","version":2,"codec":"binary"}|});
        check_contains "binary granted" (recv ()) {|"codec":"binary"|};
        send (Frame.encode (Codec.escape_json ~id:9 huge));
        match Codec.decode_reply (recv ()) with
        | Ok (Codec.Failed { id; message }) ->
            check int "under its transport id" 9 id;
            check_contains "names the failure" message "too large"
        | Ok _ -> fail "expected a Failed reply"
        | Error m -> fail ("not a binary reply: " ^ m));
    Alcotest.test_case "requests ahead of an oversized header are answered"
      `Quick (fun () ->
        (* one write: a valid request, then a header announcing a frame
           one byte over the limit.  The slow dispatched handler keeps the
           request in flight when the bad header is seen, so the server
           must both deliver the frame and wait for its answer before
           hanging up *)
        with_engine @@ fun engine ->
        with_server
          ~dispatch:(fun job -> ignore (Thread.create job ()))
          (fun line ->
            Thread.delay 0.1;
            Serve.handle_line engine line)
        @@ fun _srv addr ->
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
        @@ fun () ->
        Unix.connect fd
          (Unix.ADDR_INET (Unix.inet_addr_loopback, addr.Addr.port));
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
        let out =
          Frame.encode {|{"op":"psph","n":1,"values":2,"id":1}|}
          ^ header (Frame.max_frame + 1)
        in
        ignore (Unix.write_substring fd out 0 (String.length out));
        let r = Frame.reader () in
        let buf = Bytes.create 4096 in
        let rec read_all acc =
          match Frame.next r with
          | Some p -> read_all (p :: acc)
          | None -> (
              match Unix.read fd buf 0 (Bytes.length buf) with
              | 0 -> List.rev acc
              | n ->
                  Frame.feed r buf 0 n;
                  read_all acc)
        in
        (match read_all [] with
        | [ answer; err ] ->
            check_contains "the request is answered" answer {|"id":1|};
            check_contains "answered ok" answer {|"ok":true|};
            check_contains "then the framing error" err "frame too large"
        | got ->
            fail
              (Printf.sprintf "expected answer then error, got [%s]"
                 (String.concat " | " got)));
        (* the server hung up on that connection only; a fresh client is
           served *)
        with_client addr @@ fun c ->
        check_contains "a fresh client is served"
          (request_ok c {|{"op":"models"}|})
          "async");
    Alcotest.test_case "connect refused is retryable, not fatal" `Quick
      (fun () ->
        with_client ~timeout_ms:500 ~retries:2 (loopback (dead_port ()))
        @@ fun c ->
        match Client.request c {|{"op":"stats"}|} with
        | Ok _ -> fail "nothing was listening"
        | Error e ->
            check bool "retryable" true (Client.is_retryable e);
            check bool "protocol errors are fatal" false
              (Client.is_retryable (Client.Protocol "x")));
    Alcotest.test_case "stop drains past a full connection pool" `Quick
      (fun () ->
        (* with max_conns idle peers the accept loop is parked in its
           capacity wait; stop must still reach the drain path and
           return rather than deadlock *)
        match Server.listen ~max_conns:1 ~handler:(fun _ -> "x") (loopback 0)
        with
        | Error m -> fail m
        | Ok srv ->
            Server.start srv;
            let fd =
              Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0
            in
            Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
            @@ fun () ->
            Unix.connect fd
              (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
            (* give the accept loop time to take the connection and park *)
            Thread.delay 0.2;
            Server.stop srv);
    Alcotest.test_case "spans nest across the socket" `Quick (fun () ->
        with_engine @@ fun engine ->
        with_server (Serve.handle_line engine) @@ fun _srv addr ->
        with_client addr @@ fun c ->
        Fun.protect ~finally:(fun () -> Obs.set_sink Obs.Null) @@ fun () ->
        Obs.set_sink Obs.Memory;
        Obs.clear_records ();
        ignore (request_ok c {|{"op":"psph","n":1,"values":1}|});
        Obs.set_sink Obs.Null;
        let span name =
          List.find_map
            (function
              | Obs.Span_record { name = n; id; parent; _ } when n = name ->
                  Some (id, parent)
              | _ -> None)
            (Obs.records ())
        in
        match
          (span "net.client.request", span "serve.request", span "engine.query")
        with
        | Some (cid, croot), Some (sid, sparent), Some (_, qparent) ->
            check (option int) "client span is the root" None croot;
            check (option int) "serve.request under net.client.request"
              (Some cid) sparent;
            check (option int) "engine.query under serve.request" (Some sid)
              qparent
        | c', s', q' ->
            fail
              (Printf.sprintf "missing spans: client=%b serve=%b query=%b"
                 (c' <> None) (s' <> None) (q' <> None)));
  ]

(* ------------------------------------------------------------------ *)
(* Codec: qcheck round-trips and decoder fuzz                          *)
(* ------------------------------------------------------------------ *)

module MC = Pseudosphere.Model_complex

let gen_request =
  let open QCheck2.Gen in
  let want = oneofl [ Codec.Both; Codec.Betti; Codec.Connectivity ] in
  let psph =
    map2 (fun n values -> Codec.Psph { n; values }) (0 -- 0xffff) (0 -- 0xffff)
  in
  let facets =
    map (fun fs -> Codec.Facets fs) (list_size (0 -- 5) (string_size (0 -- 40)))
  in
  let model =
    let field = 0 -- 0xffff in
    let ext =
      list_size (0 -- 3)
        (pair (string_size ~gen:(char_range 'a' 'z') (1 -- 8)) field)
    in
    map3
      (fun model (n, (f, (k, (p, r)))) ext ->
        Codec.Model { model; spec = { MC.n; f; k; p; r; ext } })
      (string_size ~gen:(char_range 'a' 'z') (1 -- 10))
      (pair field (pair field (pair field (pair field field))))
      ext
  in
  map3
    (fun id want query -> { Codec.id; want; query })
    (0 -- Codec.max_id) want
    (oneof [ psph; facets; model ])

let gen_provenance =
  let open QCheck2.Gen in
  map
    (fun (tier, (rule, (steps, checked))) ->
      { E.tier; rule; steps; cells_removed = None; checked })
    (pair
       (oneofl [ E.Cached; E.Symbolic; E.Numeric ])
       (pair
          (option (string_size (0 -- 40)))
          (pair
             (option (int_range 0 0xFFFFFFFF))
             (option (int_range (-0x80000000) 0x7FFFFFFF)))))

let gen_reply =
  let open QCheck2.Gen in
  let id = 0 -- Codec.max_id in
  let result =
    map
      (fun (id, (key, (cached, (betti, (connectivity, solver))))) ->
        Codec.Result { id; key; cached; betti; connectivity; solver })
      (pair id
         (pair (string_size (0 -- 64))
            (pair bool
               (pair
                  (option
                     (map Array.of_list
                        (list_size (0 -- 6) (int_range 0 0xFFFFFFFF))))
                  (pair
                     (option (int_range (-0x80000000) 0x7FFFFFFF))
                     (option gen_provenance))))))
  in
  let failed =
    map2 (fun id message -> Codec.Failed { id; message }) id (string_size (0 -- 80))
  in
  oneof [ result; failed ]

let codec_props =
  let open QCheck2 in
  [
    Test.make ~name:"requests round-trip through the wire" ~count:500
      gen_request (fun r -> Codec.decode_request (Codec.encode_request r) = Ok r);
    Test.make ~name:"request_with_id = a fresh encode with that id" ~count:200
      Gen.(pair gen_request (0 -- Codec.max_id))
      (fun (r, id) ->
        Codec.request_with_id (Codec.encode_request r) id
        = Codec.encode_request { r with Codec.id = id });
    Test.make ~name:"replies round-trip through the wire" ~count:500 gen_reply
      (fun r -> Codec.decode_reply (Codec.encode_reply r) = Ok r);
    Test.make ~name:"truncated requests decode to Error, never raise"
      ~count:300
      Gen.(pair gen_request (0 -- 1000))
      (fun (r, cut) ->
        let wire = Codec.encode_request r in
        let k = cut mod String.length wire in
        match Codec.decode_request (String.sub wire 0 k) with
        | Ok _ -> false
        | Error _ -> true);
    Test.make ~name:"garbage decodes to Error or Ok, never raises" ~count:500
      Gen.(string_size (0 -- 64))
      (fun s ->
        (match Codec.decode_request s with Ok _ | Error _ -> true)
        && match Codec.decode_reply s with Ok _ | Error _ -> true);
    Test.make ~name:"json escape round-trips its id over the u32 range"
      ~count:500
      Gen.(
        pair
          (oneof [ pure 0; pure Codec.max_id; 0 -- Codec.max_id ])
          (string_size (0 -- 80)))
      (fun (id, s) ->
        let wire = Codec.escape_json ~id s in
        Codec.unescape_json wire = Some (id, s)
        && Codec.request_id_of_payload wire = id
        && Codec.request_with_id (Codec.escape_json ~id:0 s) id = wire
        && Codec.unescape_json
             (Codec.encode_reply (Codec.Failed { id; message = s }))
           = None
        && (match Codec.escape_json ~id:(Codec.max_id + 1) s with
           | _ -> false
           | exception Invalid_argument _ -> true));
  ]
  |> List.map QCheck_alcotest.to_alcotest

let codec_tests =
  [
    Alcotest.test_case "binary answers byte-equivalent to JSON, every model"
      `Quick
      (fun () ->
        with_engine @@ fun engine ->
        let json = Serve.handle_line engine in
        let bin = Codec.handle ~json engine in
        (* every want/query pair Serve.parse produces: psph and model
           under both measurements and under connectivity alone (the
           tiered solver), facets split by op *)
        let model name =
          Codec.Model { model = name; spec = { MC.default_spec with n = 2 } }
        in
        let cases =
          (Codec.Both, Codec.Psph { n = 2; values = 2 })
          :: (Codec.Connectivity, Codec.Psph { n = 2; values = 3 })
          :: (Codec.Betti, Codec.Facets [ "0:i0 ; 1:i1" ])
          :: (Codec.Connectivity,
              Codec.Facets [ "0:i0 ; 1:i1"; "1:i1 ; 2:i0" ])
          :: (Codec.Both,
              Codec.Model { model = "nope"; spec = MC.default_spec })
          :: List.concat_map
               (fun name ->
                 [ (Codec.Both, model name); (Codec.Connectivity, model name) ])
               (MC.names ())
        in
        List.iteri
          (fun i (want, query) ->
            let id = Jsonl.int (100 + i) in
            let jline = Codec.json_line_of_query ~id want query in
            (match (query, Serve.parse (Jsonl.of_string jline)) with
            | Codec.Model { model = "nope"; _ }, Error _ -> ()
            | _, Ok (w, q, E.Auto) when w = want && q = query -> ()
            | _ -> fail ("JSON line does not parse back: " ^ jline));
            (* warm first, so both sides agree on the cached flag *)
            ignore (json jline);
            let expect = json jline in
            let breq = Codec.encode_request { Codec.id = 100 + i; want; query } in
            match Codec.decode_reply (bin breq) with
            | Error m -> fail m
            | Ok reply ->
                check string
                  (Printf.sprintf "case %d: %s" i jline)
                  expect
                  (Codec.json_of_reply ~id:(Some id) reply))
          cases);
    Alcotest.test_case "retired cells_removed bit is refused" `Quick
      (fun () ->
        let reply =
          Codec.Result
            {
              id = 9;
              key = "k";
              cached = false;
              betti = None;
              connectivity = None;
              solver =
                Some
                  { E.tier = E.Numeric; rule = None; steps = Some 5;
                    cells_removed = None; checked = Some (-1) };
            }
        in
        let wire = Codec.encode_reply reply in
        (* tag, id:u32, flags, key length, "k", tier, presence byte at
           offset 9, then steps:u32 and checked:i32 *)
        check int "presence: steps and checked" 0b1010 (Char.code wire.[9]);
        check int "length" 18 (String.length wire);
        check bool "decodes without bit 2" true (Codec.decode_reply wire = Ok reply);
        (* bit 2 with the u32 it used to announce, and bit 2 alone *)
        List.iter
          (fun (what, bad) ->
            match Codec.decode_reply bad with
            | Error _ -> ()
            | Ok _ -> fail (what ^ ": a reply with bit 2 set decoded"))
          [ ( "with cells_removed",
              String.sub wire 0 9 ^ "\x0e" ^ String.sub wire 10 4
              ^ "\x00\x00\x00\x07" ^ String.sub wire 14 4 );
            ("bit alone", String.sub wire 0 9 ^ "\x0e" ^ String.sub wire 10 8) ]);
    Alcotest.test_case "a 0x00 frame too short for an id gets a 0x81" `Quick
      (fun () ->
        with_engine @@ fun engine ->
        let json = Serve.handle_line engine in
        let handlers =
          [ ("Codec.handle", Codec.handle ~json engine);
            ("of_json_handler", Codec.of_json_handler json) ]
        in
        List.iter
          (fun (what, bin) ->
            List.iter
              (fun short ->
                match Codec.decode_reply (bin short) with
                | Ok (Codec.Failed { id = 0; message }) ->
                    check_contains what message "bad request"
                | Ok _ -> fail (what ^ ": expected a Failed reply with id 0")
                | Error m -> fail (what ^ ": reply must stay well-formed: " ^ m))
              [ "\x00"; "\x00\x00"; "\x00\x00\x00\x07" ])
          handlers;
        (* and over a live binary connection, which stays usable *)
        with_v2_server engine @@ fun _srv addr ->
        with_raw_conn addr @@ fun send recv ->
        send (Frame.encode {|{"op":"hello","version":2,"codec":"binary"}|});
        check_contains "binary granted" (recv ()) {|"codec":"binary"|};
        send (Frame.encode "\x00ab");
        (match Codec.decode_reply (recv ()) with
        | Ok (Codec.Failed { id = 0; _ }) -> ()
        | _ -> fail "expected a 0x81 reply with id 0");
        send (Frame.encode (Codec.escape_json ~id:77 {|{"op":"models"}|}));
        match Codec.unescape_json (recv ()) with
        | Some (77, line) -> check_contains "answered after" line {|"ok":true|}
        | _ -> fail "expected the escape answered under id 77");
    Alcotest.test_case "corrupt binary request answered in kind" `Quick
      (fun () ->
        with_engine @@ fun engine ->
        let bin = Codec.handle ~json:(Serve.handle_line engine) engine in
        (* tag says facets, payload lies about its entry count *)
        let resp = bin "\x02\x00\x00\x00\x07\x00\x00\x09" in
        match Codec.decode_reply resp with
        | Ok (Codec.Failed { id = 7; message }) ->
            check_contains "names the decode failure" message "bad request"
        | Ok _ -> fail "expected a Failed reply addressed to id 7"
        | Error m -> fail ("reply must stay well-formed: " ^ m));
  ]

(* ------------------------------------------------------------------ *)
(* Pipelining (wire protocol v2 end to end)                            *)
(* ------------------------------------------------------------------ *)

let pipeline_tests =
  [
    Alcotest.test_case "pipelined responses keep order, bytes and ids" `Quick
      (fun () ->
        with_engine @@ fun engine ->
        with_v2_server ~metrics:"t.psrv" engine @@ fun _srv addr ->
        let lines =
          [
            {|{"op":"psph","n":1,"values":2,"id":1}|};
            {|{"op":"psph","n":2,"values":2}|};
            {|{"op":"models"}|};
            {|{"op":"betti","facets":["0:i0 ; 1:i1"],"id":"mine"}|};
            {|{"op":"psph","n":1,"values":3,"id":42}|};
          ]
        in
        (* warm, so repeat answers are byte-deterministic *)
        List.iter (fun l -> ignore (Serve.handle_line engine l)) lines;
        let expect = List.map (Serve.handle_line engine) lines in
        let c = Client.create ~retries:1 ~pipeline_depth:3 addr in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        let got =
          List.map
            (function Ok s -> s | Error e -> fail (Client.error_message e))
            (Client.pipeline c lines)
        in
        List.iteri
          (fun i (e, g) -> check string (Printf.sprintf "line %d" i) e g)
          (List.combine expect got);
        (* all 5 frames (4 hot + the models escape) rode the binary codec *)
        check int "binary requests seen by the server" 5
          (Obs.counter_value (Obs.counter "t.psrv.binary_requests")));
    Alcotest.test_case "the pool runs each request whole, answers unchanged"
      `Quick
      (fun () ->
        (* [psc serve --listen --domains 2]: every request is one pool
           job, and nothing inside a request (a miss's elimination, a
           batch's members) goes back to the pool *)
        let requests (n, v) =
          [
            Printf.sprintf {|{"op":"model-complex","model":"sync","n":%d,"r":1,"id":1}|} n;
            Printf.sprintf {|{"op":"psph","n":%d,"values":%d,"id":2}|} (n + 1) v;
            Printf.sprintf
              {|{"op":"batch","id":3,"requests":[{"op":"psph","n":%d,"values":%d},{"op":"model-complex","model":"semi","n":%d},{"op":"betti","facets":["0:i0 ; 1:i1","1:i1 ; 2:i%d"]}]}|}
              n (v + 1) n v;
          ]
        in
        (* distinct specs per transport, so both passes are cold misses *)
        let json_lines = requests (2, 2) and bin_lines = requests (1, 3) in
        let expect =
          with_engine @@ fun reference ->
          List.map (Serve.handle_line reference) (json_lines @ bin_lines)
        in
        let engine = E.create ~domains:2 () in
        Fun.protect ~finally:(fun () -> E.shutdown engine) @@ fun () ->
        let jobs = Obs.counter "engine.pool.jobs"
        and inline = Obs.counter "engine.pool.inline" in
        let jobs0 = Obs.counter_value jobs and inline0 = Obs.counter_value inline in
        let got =
          with_v2_server ~dispatch:(E.dispatch engine) engine @@ fun _srv addr ->
          let seq = with_client addr (fun c -> List.map (request_ok c) json_lines) in
          let c = Client.create ~retries:1 ~pipeline_depth:3 addr in
          Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
          seq
          @ List.map
              (function Ok s -> s | Error e -> fail (Client.error_message e))
              (Client.pipeline c bin_lines)
        in
        List.iteri
          (fun i (e, g) -> check string (Printf.sprintf "line %d" i) e g)
          (List.combine expect got);
        check int "one pool job per request" 6 (Obs.counter_value jobs - jobs0);
        check int "nothing ran inline" 0 (Obs.counter_value inline - inline0));
    Alcotest.test_case "a solver mode answers alike pipelined and sequential"
      `Quick
      (fun () ->
        (* the binary layout carries no solver mode, so a non-auto
           "solver" must ride the JSON escape: the same line answers
           byte-identically pipelined and sequential, from the engine's
           own binary handler and from a line-handler-only server *)
        with_engine @@ fun engine ->
        let lines =
          [
            {|{"op":"connectivity","facets":["0:i0 ; 1:i1","1:i1 ; 2:i0"],"solver":"symbolic","id":1}|};
            {|{"op":"model-complex","model":"sync","n":2,"solver":"check","id":2}|};
            {|{"op":"psph","n":2,"values":2,"solver":"bogus","id":3}|};
          ]
        in
        (* warm, so repeat answers are byte-deterministic *)
        List.iter (fun l -> ignore (Serve.handle_line engine l)) lines;
        let expect = List.map (Serve.handle_line engine) lines in
        check_contains "symbolic tier refuses facets" (List.nth expect 0)
          {|"ok":false|};
        check_contains "check mode checks" (List.nth expect 1) {|"checked":|};
        check_contains "bad mode refused" (List.nth expect 2) "unknown solver mode";
        let same what addr =
          let c = Client.create ~retries:1 ~pipeline_depth:4 addr in
          Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
          List.iteri
            (fun i (e, g) ->
              match g with
              | Ok g -> check string (what ^ ": " ^ List.nth lines i) e g
              | Error err -> fail (Client.error_message err))
            (List.combine expect (Client.pipeline c lines))
        in
        with_v2_server engine (fun _ addr -> same "Codec.handle" addr);
        with_server (Serve.handle_line engine) (fun _ addr ->
            same "line handler" addr));
    Alcotest.test_case "a garbled hello grant is retried, never spoken v1 to"
      `Quick
      (fun () ->
        with_engine @@ fun engine ->
        let line = {|{"op":"psph","n":1,"values":2,"id":7}|} in
        ignore (Serve.handle_line engine line);
        let expect = Serve.handle_line engine line in
        with_v2_server engine @@ fun _srv addr ->
        with_garbling_relay addr (fun relay ->
            let c =
              Client.create ~metrics:"t.garble" ~retries:1 ~codec:`Binary relay
            in
            Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
            check string "answered on a fresh, granted connection" expect
              (request_ok c line);
            let count name =
              Obs.counter_value (Obs.counter ("t.garble." ^ name))
            in
            check int "the first connection and one reconnect" 2
              (count "reconnects");
            check int "one retry" 1 (count "retries"));
        with_garbling_relay addr @@ fun relay ->
        let c = Client.create ~retries:0 ~codec:`Binary relay in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        match Client.request c line with
        | Ok r -> fail ("expected a refused hello, got " ^ r)
        | Error e ->
            check bool "retryable" true (Client.is_retryable e);
            check_contains "names the hello" (Client.error_message e)
              "hello not granted");
    Alcotest.test_case "line-handler server grants binary, every model"
      `Quick
      (fun () ->
        (* the router front's shape: no bin_handler, so binary requests
           go through the line handler and back, byte-identically *)
        with_engine @@ fun engine ->
        with_server (Serve.handle_line engine) @@ fun _srv addr ->
        let hot =
          {|{"op":"psph","n":2,"values":2,"id":1}|}
          :: {|{"op":"betti","facets":["0:i0 ; 1:i1"],"id":"b"}|}
          :: {|{"op":"connectivity","facets":["0:i0 ; 1:i1","1:i1 ; 2:i0"]}|}
          :: {|{"op":"connectivity","n":2,"values":3,"id":4}|}
          :: List.concat
               (List.mapi
                  (fun i name ->
                    [
                      Printf.sprintf
                        {|{"op":"model-complex","model":%S,"n":2,"id":%d}|} name
                        (10 + i);
                      Printf.sprintf
                        {|{"op":"connectivity","model":%S,"n":2,"id":"c%d"}|}
                        name i;
                    ])
                  (MC.names ()))
        in
        (* escapes: a non-hot op, and a hot op Serve.parse refuses *)
        let lines =
          hot
          @ [
              {|{"op":"models"}|};
              {|{"op":"model-complex","model":"nope","n":2,"id":3}|};
            ]
        in
        (* warm, so repeat answers are byte-deterministic *)
        List.iter (fun l -> ignore (Serve.handle_line engine l)) lines;
        let expect = List.map (Serve.handle_line engine) lines in
        let c =
          Client.create ~metrics:"t.front" ~retries:1 ~pipeline_depth:4 addr
        in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        let got =
          List.map
            (function Ok s -> s | Error e -> fail (Client.error_message e))
            (Client.pipeline c lines)
        in
        List.iteri
          (fun i (e, g) -> check string (List.nth lines i) e g)
          (List.combine expect got);
        check int "every hot op rode the binary window" (List.length hot)
          (Obs.counter_value (Obs.counter "t.front.pipelined")));
    Alcotest.test_case "a reply without a known solver tier is refused"
      `Quick
      (fun () ->
        (* every answer names the tier that produced it: a reply that
           lost the field, or names a tier nobody produces, is damaged,
           not a different answer *)
        let ok =
          {|{"ok":true,"key":"00","betti":[1,0],"connectivity":0,"cached":false|}
        in
        check bool "a known tier parses" true
          (Serve.reply_of_json (ok ^ {|,"solver":{"tier":"numeric"}}|}) <> None);
        let payload =
          Codec.encode_request
            { Codec.id = 9; want = Codec.Both;
              query = Codec.Psph { n = 1; values = 2 } }
        in
        List.iter
          (fun line ->
            check bool line true (Serve.reply_of_json line = None);
            match
              Codec.decode_reply (Codec.of_json_handler (fun _ -> line) payload)
            with
            | Ok (Codec.Failed { id; message }) ->
                check int "under the request's id" 9 id;
                check_contains "named" message "unparseable answer"
            | Ok _ -> fail ("accepted " ^ line)
            | Error m -> fail m)
          [ ok ^ "}"; ok ^ {|,"solver":{"tier":"bogus"}}|} ]);
    Alcotest.test_case "json hello: pipeline:false, request order kept"
      `Quick
      (fun () ->
        (* the first request is slowest, so out-of-order completion on
           the dispatch threads would reorder an unordered connection *)
        let handler line =
          if contains line "slow" then Thread.delay 0.2;
          line
        in
        with_server ~dispatch:(fun job -> ignore (Thread.create job ())) handler
        @@ fun _srv addr ->
        with_raw_conn addr @@ fun send recv ->
        send (Frame.encode {|{"op":"hello","version":2,"codec":"json","pipeline":true}|});
        let hello = recv () in
        check_contains "json granted" hello {|"codec":"json"|};
        check_contains "not pipelined" hello {|"pipeline":false|};
        let lines =
          [ {|{"op":"slow","id":1}|}; {|{"op":"a","id":2}|}; {|{"op":"b","id":3}|} ]
        in
        send (String.concat "" (List.map Frame.encode lines));
        check (list string) "responses in request order" lines
          (List.map (fun _ -> recv ()) lines));
    Alcotest.test_case "eval_many: structured replies, JSON fallback in-range"
      `Quick
      (fun () ->
        with_engine @@ fun engine ->
        with_v2_server engine @@ fun _srv addr ->
        let c =
          Client.create ~retries:1 ~codec:`Binary ~pipeline_depth:4 addr
        in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        let psph = Codec.Psph { n = 2; values = 2 } in
        let rs =
          Client.eval_many c
            [
              (Codec.Both, psph);
              (Codec.Betti, psph);
              (Codec.Connectivity, psph);
              (* name too long for the codec: rides the JSON escape and
                 still comes back as a structured reply *)
              ( Codec.Both,
                Codec.Model { model = String.make 300 'z'; spec = MC.default_spec } );
            ]
        in
        match rs with
        | [ Ok (Codec.Result a); Ok (Codec.Result b); Ok (Codec.Result d);
            Ok (Codec.Failed { message; _ }) ] ->
            check bool "both: betti present" true (a.betti <> None);
            check bool "both: connectivity present" true (a.connectivity <> None);
            check bool "betti-only: no connectivity" true (b.connectivity = None);
            check bool "betti-only: betti present" true (b.betti <> None);
            check bool "connectivity-only: no betti" true (d.betti = None);
            check (option (list int)) "same betti both ways"
              (Option.map Array.to_list a.betti)
              (Option.map Array.to_list b.betti);
            check string "same key" a.key d.key;
            check_contains "fallback answered by serve" message "model"
        | rs ->
            fail
              (Printf.sprintf "unexpected shapes (%d results)" (List.length rs)));
    Alcotest.test_case
      "timed-out response dropped and counted, connection kept" `Quick
      (fun () ->
        (* bin_handler echoes the transport id; n=9 marks the slow
           request.  dispatch threads keep the slow handler from blocking
           the fast one, so the fast response overtakes it on the wire *)
        let bin_handler payload =
          match Codec.decode_request payload with
          | Ok { Codec.id; query = Codec.Psph { n; _ }; _ } ->
              if n = 9 then Thread.delay 0.6;
              Codec.encode_reply
                (Codec.Result
                   { id; key = "k"; cached = false; betti = None;
                     connectivity = None; solver = None })
          | _ -> Codec.encode_reply (Codec.Failed { id = 0; message = "?" })
        in
        with_server
          ~dispatch:(fun job -> ignore (Thread.create job ()))
          ~bin_handler
          (fun _ -> {|{"ok":false,"error":"binary only"}|})
        @@ fun _srv addr ->
        let c =
          Client.create ~metrics:"t.stale" ~timeout_ms:150 ~retries:0
            ~backoff_ms:1 ~pipeline_depth:2 addr
        in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        let slow = {|{"op":"psph","n":9,"values":1}|} in
        let fast = {|{"op":"psph","n":1,"values":1}|} in
        (match Client.pipeline c [ slow; fast ] with
        | [ Error Client.Timeout; Ok fast_resp ] ->
            check_contains "fast one answered" fast_resp {|"ok":true|}
        | [ a; b ] ->
            let show = function
              | Ok s -> "Ok " ^ s
              | Error e -> "Error " ^ Client.error_message e
            in
            fail (Printf.sprintf "slow=%s fast=%s" (show a) (show b))
        | _ -> fail "wrong arity");
        (* let the late response land in the socket buffer, then pump
           again: it must be discarded, not delivered to the new request *)
        Thread.delay 0.7;
        (match Client.pipeline c [ fast ] with
        | [ Ok resp ] -> check_contains "new request unconfused" resp {|"ok":true|}
        | _ -> fail "retry after stale should succeed");
        check int "stale response counted" 1
          (Obs.counter_value (Obs.counter "t.stale.stale_response"));
        check int "the connection survived both" 1
          (Obs.counter_value (Obs.counter "t.stale.reconnects")));
  ]

(* ------------------------------------------------------------------ *)
(* Reset taxonomy (the chaos proxy's reset mode in miniature)          *)
(* ------------------------------------------------------------------ *)

(* a server whose first connection is hard-closed with SO_LINGER 0 (so
   the kernel sends RST, not FIN) after the request arrives — the
   client sees ECONNRESET mid-request — and whose later connections
   answer properly, so a retry can succeed *)
let with_reset_then_ok_server f =
  let first = ref true in
  let serve_conn c =
    if !first then begin
      first := false;
      ignore
        (try Unix.read c (Bytes.create 256) 0 256 with Unix.Unix_error _ -> 0);
      (try Unix.setsockopt_optint c Unix.SO_LINGER (Some 0)
       with Unix.Unix_error _ -> ());
      try Unix.close c with Unix.Unix_error _ -> ()
    end
    else begin
      let r = Frame.reader () in
      let buf = Bytes.create 4096 in
      let rec req () =
        match Frame.next r with
        | Some p -> Some p
        | None ->
            let n = Unix.read c buf 0 (Bytes.length buf) in
            if n = 0 then None
            else begin
              Frame.feed r buf 0 n;
              req ()
            end
      in
      (try
         match req () with
         | Some _ ->
             let resp = Frame.encode {|{"ok":true,"reborn":true}|} in
             ignore (Unix.write_substring c resp 0 (String.length resp))
         | None -> ()
       with Unix.Unix_error _ -> ());
      try Unix.close c with Unix.Unix_error _ -> ()
    end
  in
  with_fake_backend serve_conn f

let reset_tests =
  [
    Alcotest.test_case "ECONNRESET mid-request is a named retryable failure"
      `Quick
      (fun () ->
        with_reset_then_ok_server @@ fun addr ->
        let c = Client.create ~timeout_ms:2000 ~retries:0 addr in
        (match Client.request c {|{"op":"ping"}|} with
        | Ok r -> fail ("expected a reset, got " ^ r)
        | Error e -> (
            check bool "classified retryable" true (Client.is_retryable e);
            match e with
            | Client.Connection m ->
                check_contains "names the reset family" m
                  "reset by peer mid-request"
            | Client.Timeout | Client.Protocol _ ->
                fail
                  ("expected a Connection error, got "
                  ^ Client.error_message e)));
        Client.close c);
    Alcotest.test_case "a retry rides a fresh connection past the reset"
      `Quick
      (fun () ->
        with_reset_then_ok_server @@ fun addr ->
        let c = Client.create ~timeout_ms:2000 ~retries:2 addr in
        (match Client.request c {|{"op":"ping"}|} with
        | Ok r -> check_contains "second connection answered" r "reborn"
        | Error e -> fail (Client.error_message e));
        Client.close c);
  ]

(* ------------------------------------------------------------------ *)
(* Router                                                              *)
(* ------------------------------------------------------------------ *)

(* a binary backend that grants the hello, then answers every request
   whose line mentions "big" with a bare header one byte over the frame
   bound, and every other request with {"ok":true}.  One connection at a
   time: a client that hits the bad header drops its connection and
   reconnects. *)
let with_oversizing_backend f =
  let serve_conn c =
    let r = Frame.reader () in
    let buf = Bytes.create 4096 in
    let send s = ignore (Unix.write_substring c s 0 (String.length s)) in
    let rec go () =
      match Frame.next r with
      | Some p ->
          (match Codec.unescape_json p with
          | None ->
              send
                (Frame.encode
                   {|{"ok":true,"version":2,"codec":"binary","pipeline":true}|})
          | Some (id, line) ->
              send
                (if contains line "big" then header (Frame.max_frame + 1)
                 else Frame.encode (Codec.escape_json ~id {|{"ok":true}|})));
          go ()
      | None ->
          let n = Unix.read c buf 0 (Bytes.length buf) in
          if n > 0 then begin
            Frame.feed r buf 0 n;
            go ()
          end
    in
    (try go () with Unix.Unix_error _ -> ());
    try Unix.close c with Unix.Unix_error _ -> ()
  in
  with_fake_backend serve_conn f

let mk_router ?metrics ?(retries = 0) ports =
  Router.create ?metrics ~timeout_ms:2000 ~retries ~check_period_ms:3600_000
    (List.map loopback ports)

let router_tests =
  [
    Alcotest.test_case "psc route refuses a repeated --backend as a usage error"
      `Quick (fun () ->
        (* the ring names each backend once: a repeat used to escape as
           an uncaught Invalid_argument, exit 125 *)
        let status, err =
          Psc_child.run
            [
              "route"; "--listen"; "127.0.0.1:0"; "--backend"; "127.0.0.1:7999";
              "--backend"; "127.0.0.1:7999";
            ]
        in
        check bool "exit 2" true (status = Unix.WEXITED 2);
        check_contains "stderr" err "duplicate node 127.0.0.1:7999");
    Alcotest.test_case "shard keys canonicalize like the engine" `Quick
      (fun () ->
        check (option string) "psph by parameters"
          (Some "psph:2:3")
          (Router.shard_key {|{"op":"psph","n":2,"values":3}|});
        (* async normalizes k and p away: requests differing only in
           parameters the model ignores must land on the same backend *)
        check (option string) "model params the model ignores"
          (Router.shard_key {|{"op":"model-complex","model":"async","n":2,"k":1}|})
          (Router.shard_key {|{"op":"model-complex","model":"async","n":2,"k":5,"p":9}|});
        (* explicit complexes shard by content address, so facet order
           and the betti/connectivity split don't matter *)
        let k1 =
          Router.shard_key {|{"op":"betti","facets":["0:i0 ; 1:i1","1:i1 ; 2:i0"]}|}
        in
        check (option string) "facet order irrelevant" k1
          (Router.shard_key
             {|{"op":"connectivity","facets":["1:i1 ; 2:i0","0:i0 ; 1:i1"]}|});
        check bool "content-addressed" true
          (match k1 with Some s -> String.length s > 4 && String.sub s 0 4 = "key:" | None -> false);
        (* one grammar: the connectivity-over-spec forms shard with the
           spec they name, and the solver mode does not move placement *)
        check (option string) "connectivity+model = model-complex"
          (Router.shard_key {|{"op":"model-complex","model":"sync","n":3,"r":2}|})
          (Router.shard_key {|{"op":"connectivity","model":"sync","n":3,"r":2}|});
        check (option string) "connectivity+values = psph" (Some "psph:2:3")
          (Router.shard_key {|{"op":"connectivity","n":2,"values":3}|});
        check (option string) "solver mode ignored"
          (Router.shard_key {|{"op":"model-complex","model":"sync","n":3}|})
          (Router.shard_key
             {|{"op":"model-complex","model":"sync","n":3,"solver":"check"}|});
        check (option string) "solver mode ignored (facets)" k1
          (Router.shard_key
             {|{"op":"connectivity","facets":["0:i0 ; 1:i1","1:i1 ; 2:i0"],"solver":"symbolic"}|});
        check (option string) "stats has no affinity" None
          (Router.shard_key {|{"op":"stats"}|});
        check (option string) "garbage has no affinity" None
          (Router.shard_key "not json"));
    Alcotest.test_case "preference is deterministic and stable" `Quick
      (fun () ->
        let r3 = mk_router [ 6401; 6402; 6403 ] in
        let r2 = mk_router [ 6401; 6402 ] in
        Fun.protect
          ~finally:(fun () -> Router.stop r3; Router.stop r2)
        @@ fun () ->
        let lines =
          List.init 60 (fun i ->
              Printf.sprintf {|{"op":"psph","n":%d,"values":%d}|} (i mod 6)
                (i / 6))
        in
        List.iter
          (fun line ->
            let p = Router.preference r3 line in
            check (list int) "deterministic" p (Router.preference r3 line);
            check (list int) "a permutation of all backends"
              (List.sort compare p) [ 0; 1; 2 ];
            (* consistent hashing: dropping backend 2 must not move keys
               whose first choice was backend 0 or 1 *)
            let hd3 = List.hd p in
            if hd3 < 2 then
              check int "survivors keep their keys" hd3
                (List.hd (Router.preference r2 line)))
          lines;
        (* keyless requests rotate rather than pile on one backend *)
        let heads =
          List.init 3 (fun _ ->
              List.hd (Router.preference r3 {|{"op":"stats"}|}))
        in
        check (list int) "round-robin" [ 0; 1; 2 ]
          (List.sort compare heads));
    Alcotest.test_case "empty backend list refused" `Quick (fun () ->
        match Router.create [] with
        | _ -> fail "should have raised"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "protocol error doesn't poison backend health" `Quick
      (fun () ->
        (* a response over the frame bound is a fatal Protocol error,
           but it's the *request* that's bad: the router must answer
           with the error and keep the backend alive *)
        with_oversizing_backend @@ fun addr ->
        let r =
          Router.create ~timeout_ms:2000 ~retries:0 ~check_period_ms:3600_000
            [ addr ]
        in
        Fun.protect ~finally:(fun () -> Router.stop r) @@ fun () ->
        let resp = Router.route r {|{"op":"big","id":4}|} in
        check_contains "answers the protocol error" resp {|"ok":false|};
        check_contains "names the failure" resp "oversized";
        check_contains "id still echoed" resp {|"id":4|};
        check bool "backend still marked alive" true
          (snd (List.hd (Router.backends r)));
        check_contains "well-sized requests keep flowing"
          (Router.route r {|{"op":"ok"}|})
          {|"ok":true|});
    Alcotest.test_case "failover when a backend dies" `Quick (fun () ->
        with_engine @@ fun engine ->
        with_server (Serve.handle_line engine) @@ fun srv1 a1 ->
        with_server (Serve.handle_line engine) @@ fun srv2 a2 ->
        let r = mk_router ~metrics:"t.fo" [ a1.Addr.port; a2.Addr.port ] in
        Fun.protect ~finally:(fun () -> Router.stop r) @@ fun () ->
        let line = {|{"op":"psph","n":1,"values":2,"id":3}|} in
        check_contains "routes while all alive" (Router.route r line)
          {|"ok":true|};
        (* kill exactly the backend this key prefers, so the reroute is a
           real failover and not a lucky hash *)
        let first = List.hd (Router.preference r line) in
        Server.stop (if first = 0 then srv1 else srv2);
        let resp = Router.route r line in
        check_contains "survivor answers" resp {|"ok":true|};
        check bool "dead backend marked down" false
          (snd (List.nth (Router.backends r) first));
        check int "one failover: sent to its second backend once" 1
          (Obs.counter_value (Obs.counter "t.fo.failover"));
        Server.stop (if first = 0 then srv2 else srv1);
        let degraded = Router.route r line in
        check_contains "degrades, never crashes" degraded "no backend";
        check_contains "id still echoed" degraded {|"id":3|});
    Alcotest.test_case "an escaped request answers under any id" `Quick
      (fun () ->
        (* a "solver" rides the JSON escape on the binary backend links;
           its answer is matched by transport id, whatever id the caller
           chose, so a big one neither times out nor poisons a backend *)
        with_engine @@ fun engine ->
        with_v2_server engine @@ fun _srv1 a1 ->
        with_v2_server engine @@ fun _srv2 a2 ->
        let r =
          Router.create ~metrics:"t.bigid" ~timeout_ms:1000 ~retries:0
            ~check_period_ms:3600_000 [ a1; a2 ]
        in
        Fun.protect ~finally:(fun () -> Router.stop r) @@ fun () ->
        let line =
          {|{"op":"psph","n":2,"values":2,"solver":"check","id":1073741825}|}
        in
        ignore (Serve.handle_line engine line);
        let expect = Serve.handle_line engine line in
        check_contains "check answers" expect {|"ok":true|};
        (* connect the link the line will take *)
        check_contains "plain line routes"
          (Router.route r {|{"op":"psph","n":2,"values":2,"id":1}|})
          {|"ok":true|};
        let reconnects = Obs.counter "t.bigid.client.reconnects" in
        let before = Obs.counter_value reconnects in
        let got = Router.route r line in
        check string "answered as the backend answers" expect got;
        check_contains "its own id echoed" got {|"id":1073741825|};
        check bool "both backends alive" true
          (List.for_all snd (Router.backends r));
        check int "no reconnect" before (Obs.counter_value reconnects));
    Alcotest.test_case "a garbled backend grant is retried, never spliced"
      `Quick
      (fun () ->
        (* backend links are binary clients, and the router splices what
           they return: a link whose grant was damaged must renegotiate,
           not hand a binary frame back as the JSON answer *)
        with_engine @@ fun engine ->
        let line = {|{"op":"psph","n":1,"values":2,"id":7}|} in
        ignore (Serve.handle_line engine line);
        let expect = Serve.handle_line engine line in
        with_v2_server engine @@ fun _srv addr ->
        with_garbling_relay addr @@ fun relay ->
        let r =
          Router.create ~metrics:"t.rgarble" ~timeout_ms:2000 ~retries:1
            ~check_period_ms:3600_000 [ relay ]
        in
        Fun.protect ~finally:(fun () -> Router.stop r) @@ fun () ->
        check string "answered as the backend answers" expect
          (Router.route r line);
        check int "the first connection and one reconnect" 2
          (Obs.counter_value (Obs.counter "t.rgarble.client.reconnects"));
        check bool "the backend stays alive" true
          (List.for_all snd (Router.backends r)));
    Alcotest.test_case "a batch is forwarded whole" `Quick (fun () ->
        with_engine @@ fun engine ->
        with_v2_server engine @@ fun srv1 a1 ->
        with_v2_server engine @@ fun _srv2 a2 ->
        let r =
          Router.create ~metrics:"t.whole" ~timeout_ms:2000 ~retries:0
            ~check_period_ms:3600_000 [ a1; a2 ]
        in
        Fun.protect ~finally:(fun () -> Router.stop r) @@ fun () ->
        let batch =
          {|{"op":"batch","requests":[{"op":"psph","n":1,"values":2,"id":"mine"},{"op":"psph","n":2,"values":2},{"op":"betti","facets":["0:i0 ; 1:i1"],"id":5},{"op":"model-complex","model":"async","n":2}]}|}
        in
        ignore (Serve.handle_line engine batch);
        (* warm, so every member answers cached on any backend *)
        let expect = Serve.handle_line engine batch in
        let forwarded () =
          Obs.counter_value (Obs.counter "t.whole.forwarded")
        in
        let routed () =
          let before = forwarded () in
          let got = Router.route r batch in
          check int "forwarded once" 1 (forwarded () - before);
          got
        in
        (* keyless, so it goes round-robin: twice visits both backends *)
        check string "answer = the backend's batch answer" expect (routed ());
        check string "on the other backend too" expect (routed ());
        (* kill one backend: the batch fails over whole, bytes unchanged *)
        Server.stop srv1;
        check string "failover keeps the bytes" expect (routed ());
        check string "and again" expect (routed ()));
  ]

(* ------------------------------------------------------------------ *)
(* Ring: replica placement as qcheck laws                              *)
(* ------------------------------------------------------------------ *)

(* the owner set the router takes: the first [r] nodes of a key's walk *)
let owners t ~r key = List.filteri (fun i _ -> i < r) (Ring.order t key)

let ring_props =
  let open QCheck2 in
  let gen_names =
    Gen.(
      map2
        (fun salt n -> List.init n (fun i -> Printf.sprintf "b%d-%d" salt i))
        (0 -- 1000) (2 -- 8))
  in
  let gen_key = Gen.(string_size (1 -- 24)) in
  [
    Test.make ~name:"owners: min r n distinct physical nodes" ~count:200
      Gen.(pair gen_names (pair (1 -- 4) gen_key))
      (fun (names, (r, key)) ->
        let t = Ring.make names in
        let os = owners t ~r key in
        List.length os = min r (List.length names)
        && List.length (List.sort_uniq compare os) = List.length os
        && List.for_all (fun i -> i >= 0 && i < List.length names) os);
    (* restarting [psc route] with one more --backend relies on this *)
    Test.make ~name:"join: a key keeps its primary or moves to the joiner"
      ~count:200
      Gen.(pair gen_names gen_key)
      (fun (names, key) ->
        let t = Ring.make names in
        let t' = Ring.make (names @ [ "joiner" ]) in
        let p = List.hd (Ring.order t key) in
        let p' = List.hd (Ring.order t' key) in
        p' = p || p' = Ring.size t);
    Test.make ~name:"leave: erases only the victim from every walk" ~count:200
      Gen.(pair gen_names (pair (0 -- 7) gen_key))
      (fun (names, (vi, key)) ->
        let victim = List.nth names (vi mod List.length names) in
        let rest = List.filter (fun n -> n <> victim) names in
        let full = Ring.make names in
        let sub = Ring.make rest in
        let names_of t = List.map (Ring.name t) (Ring.order t key) in
        names_of sub = List.filter (fun n -> n <> victim) (names_of full));
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* Placement balance over the rings a test cluster actually builds: three
   loopback backends on random ephemeral ports, R = 2.  On a fair ring
   each key lands on a given node with probability 2/3, so the node owns
   at most 2 of 12 keys with probability 289/3^12 — about one triple in
   2000.  Vnodes bunched on one arc starve a node far more often. *)
let ring_balance_test =
  Alcotest.test_case "placement: no node starved over 2000 port triples"
    `Quick (fun () ->
      let rng = Random.State.make [| 24 |] in
      let triples = 2000 and keys = 12 in
      let starved = ref 0 and empty = ref 0 in
      for _ = 1 to triples do
        let ports = List.init 3 (fun _ -> 32768 + Random.State.int rng 28000) in
        if List.length (List.sort_uniq compare ports) = 3 then begin
          let ring =
            Ring.make (List.map (Printf.sprintf "127.0.0.1:%d") ports)
          in
          let owned =
            List.length
              (List.filter
                 (fun _ ->
                   let hex =
                     String.init 32 (fun _ ->
                         "0123456789abcdef".[Random.State.int rng 16])
                   in
                   List.mem 2 (owners ring ~r:2 ("key:" ^ hex)))
                 (List.init keys Fun.id))
          in
          if owned <= 2 then incr starved;
          if owned = 0 then incr empty
        end
      done;
      Alcotest.(check bool)
        (Printf.sprintf "triples owning <= 2 of %d keys: %d (fair ~1)" keys
           !starved)
        true (!starved <= 8);
      Alcotest.(check int) "triples owning no key" 0 !empty)

(* ------------------------------------------------------------------ *)
(* Replica: snapshot/populate wire ops, cache warming                  *)
(* ------------------------------------------------------------------ *)

let rec poll ?(timeout = 5.0) ?(every = 0.02) cond =
  cond ()
  || timeout > 0.
     && begin
          Thread.delay every;
          poll ~timeout:(timeout -. every) ~every cond
        end

(* distinct cheap queries that each leave one store entry *)
let warm_queries k =
  List.init k (fun i ->
      Printf.sprintf {|{"op":"psph","n":%d,"values":%d}|}
        (1 + (i mod 3)) (1 + (i / 3)))

let replica_tests =
  [
    Alcotest.test_case "populate loads store lines in, skipping malformed ones"
      `Quick
      (fun () ->
        with_engine @@ fun a ->
        List.iter (fun q -> ignore (Serve.handle_line a q)) (warm_queries 5);
        let entry_lines =
          List.map
            (fun (k, e) -> Psph_engine.Store.entry_to_line k e)
            (E.snapshot a)
        in
        let total = List.length entry_lines in
        check bool "store has entries" true (total >= 5);
        with_engine @@ fun b ->
        let presp =
          Serve.handle_line b
            (Printf.sprintf {|{"op":"populate","entries":[%s],"id":3}|}
               (String.concat ","
                  (List.map (fun l -> Printf.sprintf "%S" l) entry_lines)))
        in
        check_contains "populate ok" presp {|"ok":true|};
        check_contains "loaded count" presp
          (Printf.sprintf {|"loaded":%d|} total);
        check_contains "nothing skipped" presp {|"skipped":0|};
        check_contains "id echoed" presp {|"id":3|};
        check_contains "warm after populate"
          (Serve.handle_line b (List.hd (warm_queries 1)))
          {|"cached":true|};
        check_contains "malformed entries skipped, not fatal"
          (Serve.handle_line b {|{"op":"populate","entries":["not a store line"]}|})
          {|"skipped":1|});
    Alcotest.test_case "entry_of_response reads answers, rejects the rest"
      `Quick
      (fun () ->
        with_engine @@ fun e ->
        let resp =
          Serve.handle_line e {|{"op":"betti","facets":["0:i0 ; 1:i1"]}|}
        in
        let entry line =
          Option.bind (Serve.reply_of_json line) Replica.entry_of_response
        in
        (match entry resp with
        | Some (key, _) ->
            check bool "key is the stored one" true
              (List.mem_assoc key (E.snapshot e))
        | None -> fail ("no entry from " ^ resp));
        check bool "errors carry no entry" true
          (entry {|{"ok":false,"error":"x"}|} = None);
        check bool "bare connectivity under-determines the entry" true
          (entry
             (Serve.handle_line e
                {|{"op":"connectivity","facets":["0:i0 ; 1:i1"]}|})
          = None));
    Alcotest.test_case "betti-only replies complete connectivity as Homology"
      `Quick (fun () ->
        let open Psph_topology in
        let point = Constructions.solid 0 in
        let two_points =
          Complex.of_facets
            [ Simplex.of_list [ Vertex.proc 0 Label.Unit ];
              Simplex.of_list [ Vertex.proc 1 Label.Unit ] ]
        in
        List.iter
          (fun (name, c) ->
            let line =
              Jsonl.to_string
                (Jsonl.Obj
                   [
                     ("ok", Jsonl.Bool true);
                     ( "key",
                       Jsonl.Str Psph_engine.Key.(to_hex (of_string name)) );
                     ( "betti",
                       Jsonl.Arr
                         (List.map Jsonl.int (Array.to_list (Homology.betti c)))
                     );
                     ("solver", Jsonl.Obj [ ("tier", Jsonl.Str "numeric") ]);
                   ])
            in
            match Option.bind (Serve.reply_of_json line) Replica.entry_of_response with
            | Some (_, entry) ->
                check int name (Homology.connectivity c)
                  entry.Psph_engine.Store.connectivity
            | None -> fail (name ^ ": no entry from " ^ line))
          [
            ("point", point);
            ("two points", two_points);
            ("circle", Constructions.sphere 1);
            ("2-sphere", Constructions.sphere 2);
            ("solid simplex", Constructions.solid 3);
          ]);
    Alcotest.test_case "hint queue overflow drops (counted), then drains"
      `Quick
      (fun () ->
        (* a full queue must refuse the hint — never backpressure the
           request path — and the worker must drain normally afterwards *)
        let t = Replica.create ~metrics:"t.ovf" ~queue_cap:2 () in
        let m = Mutex.create () and c = Condition.create () in
        let worker_busy = ref false and release = ref false and ran = ref 0 in
        let gate () =
          Mutex.lock m;
          worker_busy := true;
          Condition.broadcast c;
          while not !release do
            Condition.wait c m
          done;
          incr ran;
          Mutex.unlock m
        in
        let quick () =
          Mutex.lock m;
          incr ran;
          Mutex.unlock m
        in
        check bool "gate job accepted" true (Replica.async t gate);
        (* wait until the worker holds the gate job, so the queue is empty *)
        Mutex.lock m;
        while not !worker_busy do
          Condition.wait c m
        done;
        Mutex.unlock m;
        check bool "fills slot 1" true (Replica.async t quick);
        check bool "fills slot 2" true (Replica.async t quick);
        check bool "overflow refused, not queued" false (Replica.async t quick);
        check int "drop counted" 1
          (Obs.counter_value (Obs.counter "t.ovf.populate_drop"));
        check int "accepted hints counted" 3
          (Obs.counter_value (Obs.counter "t.ovf.populate"));
        Mutex.lock m;
        release := true;
        Condition.broadcast c;
        Mutex.unlock m;
        check bool "worker drains the burst" true
          (poll (fun () ->
               Mutex.lock m;
               let n = !ran in
               Mutex.unlock m;
               n = 3));
        Replica.stop t;
        check bool "stopped queue refuses" false (Replica.async t quick);
        check int "stopped drop counted" 2
          (Obs.counter_value (Obs.counter "t.ovf.populate_drop")));
  ]

(* ------------------------------------------------------------------ *)
(* Cluster: replication, fallback, fixed membership, backpressure      *)
(* ------------------------------------------------------------------ *)

let cluster_tests =
  [
    Alcotest.test_case "R=2: a miss populates the replica; failover hits warm"
      `Quick
      (fun () ->
        with_engine @@ fun e1 ->
        with_engine @@ fun e2 ->
        with_server (Serve.handle_line e1) @@ fun srv1 a1 ->
        with_server (Serve.handle_line e2) @@ fun srv2 a2 ->
        let r =
          Router.create ~metrics:"t.rep" ~replication:2 ~timeout_ms:2000
            ~retries:0 ~check_period_ms:3600_000 [ a1; a2 ]
        in
        Fun.protect ~finally:(fun () -> Router.stop r) @@ fun () ->
        let line = {|{"op":"betti","facets":["0:i0 ; 1:i1"],"id":6}|} in
        let resp = Router.route r line in
        check_contains "first answer ok" resp {|"ok":true|};
        check_contains "first answer is a miss" resp {|"cached":false|};
        let primary = List.hd (Router.preference r line) in
        let replica_engine = if primary = 0 then e2 else e1 in
        check bool "populate hint reached the replica" true
          (poll (fun () -> E.snapshot replica_engine <> []));
        Server.stop (if primary = 0 then srv1 else srv2);
        let resp2 = Router.route r line in
        check_contains "replica answers" resp2 {|"ok":true|};
        check_contains "served from the populated cache" resp2
          {|"cached":true|};
        let fallback_reads () =
          Obs.counter_value (Obs.counter "t.rep.replica.fallback_read")
        in
        check bool "fallback_read counted" true (fallback_reads () >= 1);
        check bool "fallback_hit counted" true
          (Obs.counter_value (Obs.counter "t.rep.replica.fallback_hit") >= 1);
        (* each line the survivor answers for the dead primary is a
           fallback read *)
        let members =
          List.init 6 (fun v ->
              Printf.sprintf {|{"op":"betti","facets":["0:i0 ; 1:i%d"]}|}
                (v + 1))
        in
        (* the first line is [line]'s complex, so at least one line's
           primary is the dead backend whatever the ports hash to *)
        let expected =
          List.length
            (List.filter
               (fun m -> List.hd (Router.preference r m) = primary)
               members)
        in
        check bool "a line's primary is the dead backend" true (expected >= 1);
        let before = fallback_reads () in
        List.iter
          (fun m -> check_contains m (Router.route r m) {|"ok":true|})
          members;
        check int "one fallback read per line the replica answered"
          expected (fallback_reads () - before));
    Alcotest.test_case "join is an unknown op: forwarded, refused, no epoch"
      `Quick
      (fun () ->
        with_engine @@ fun e1 ->
        with_engine @@ fun e2 ->
        with_server (Serve.handle_line e1) @@ fun _s1 a1 ->
        with_server (Serve.handle_line e2) @@ fun _s2 a2 ->
        let r =
          Router.create ~metrics:"t.join" ~replication:2 ~timeout_ms:2000
            ~retries:0 ~check_period_ms:3600_000 [ a1; a2 ]
        in
        Fun.protect ~finally:(fun () -> Router.stop r) @@ fun () ->
        let jr =
          Router.route r {|{"op":"join","backend":"127.0.0.1:1","id":5}|}
        in
        check_contains "refused" jr {|"ok":false|};
        check_contains "id echoed" jr {|"id":5|};
        check bool "both backends stay alive" true
          (List.for_all snd (Router.backends r));
        check int "membership unchanged" 2 (List.length (Router.backends r));
        let cl = Router.route r {|{"op":"cluster","id":6}|} in
        check_contains "cluster ok" cl {|"ok":true|};
        check_contains "cluster reports replication" cl {|"replication":2|};
        check bool "cluster has no epoch" false (contains cl {|"epoch"|});
        List.iter
          (fun (a : Addr.t) ->
            check_contains "cluster lists each backend" cl
              (Printf.sprintf {|"addr":"127.0.0.1:%d"|} a.port))
          [ a1; a2 ]);
    Alcotest.test_case "snapshot is an unknown op: refused, forwarded verbatim"
      `Quick
      (fun () ->
        let line = {|{"op":"snapshot","cursor":0}|} in
        let unknown_count () =
          match
            List.assoc_opt "serve.op.unknown" (Obs.snapshot ()).Obs.histograms
          with
          | Some st -> st.Obs.count
          | None -> 0
        in
        with_engine @@ fun e ->
        (* a cache with an entry in it, which the old op would page out *)
        ignore (Serve.handle_line e (List.hd (warm_queries 1)));
        let before = unknown_count () in
        let direct = Serve.handle_line e line in
        check int "timed under serve.op.unknown" (before + 1) (unknown_count ());
        check bool "one reply line" false (String.contains direct '\n');
        check_contains "refused" direct {|"ok":false|};
        check_contains "named as unknown" direct {|unknown op \"snapshot\"|};
        check bool "no entries paged out" false (contains direct {|"entries"|});
        with_engine @@ fun e1 ->
        with_engine @@ fun e2 ->
        with_server (Serve.handle_line e1) @@ fun _s1 a1 ->
        with_server (Serve.handle_line e2) @@ fun _s2 a2 ->
        let r =
          Router.create ~metrics:"t.snap" ~replication:2 ~timeout_ms:2000
            ~retries:0 ~check_period_ms:3600_000 [ a1; a2 ]
        in
        Fun.protect ~finally:(fun () -> Router.stop r) @@ fun () ->
        let forwarded () =
          Obs.counter_value (Obs.counter "t.snap.forwarded")
        in
        let f0 = forwarded () in
        check string "backend error returned unchanged" direct
          (Router.route r line);
        check int "forwarded to one backend" (f0 + 1) (forwarded ());
        check bool "both backends stay alive" true
          (List.for_all snd (Router.backends r)));
    Alcotest.test_case "degraded answers backpressure only while probing"
      `Quick
      (fun () ->
        let r =
          Router.create ~timeout_ms:200 ~retries:0 ~check_period_ms:250
            [ loopback (dead_port ()) ]
        in
        Fun.protect ~finally:(fun () -> Router.stop r) @@ fun () ->
        let cold = Router.route r {|{"op":"psph","n":1,"values":1,"id":2}|} in
        check_contains "degrades" cold "no backend";
        check_contains "id echoed" cold {|"id":2|};
        check bool "no backpressure without a prober" false
          (contains cold "retry_after_ms");
        Router.start_health_checks r;
        let probed = Router.route r {|{"op":"psph","n":1,"values":1}|} in
        check_contains "prober running: when to come back" probed
          {|"retry_after_ms":250|});
    Alcotest.test_case "full partition degrades, then recovers after heal"
      `Quick
      (fun () ->
        (* every backend unreachable: the degraded answer carries the
           retry hint while the prober runs — and once a backend comes
           back on one of those very ports, the prober revives it and
           real answers resume without touching the router *)
        let p1 = dead_port () and p2 = dead_port () in
        let r =
          Router.create ~timeout_ms:300 ~retries:0 ~check_period_ms:100
            [ loopback p1; loopback p2 ]
        in
        Router.start_health_checks r;
        Fun.protect ~finally:(fun () -> Router.stop r) @@ fun () ->
        let dark = Router.route r {|{"op":"psph","n":1,"values":2,"id":7}|} in
        check_contains "degrades under full partition" dark "no backend";
        check_contains "id echoed" dark {|"id":7|};
        check_contains "prober promises a retry" dark {|"retry_after_ms":100|};
        check bool "router sees every backend dead" true
          (List.for_all (fun (_, alive) -> not alive) (Router.backends r));
        let engine = E.create ~domains:0 () in
        match
          Server.listen ~handler:(Serve.handle_line engine) (loopback p2)
        with
        | Error m -> fail m
        | Ok srv ->
            Server.start srv;
            Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
            let deadline = Obs.monotonic () +. 5. in
            let rec wait () =
              let resp = Router.route r {|{"op":"psph","n":1,"values":2}|} in
              if contains resp {|"ok":true|} then resp
              else if Obs.monotonic () > deadline then
                fail ("no recovery after heal: " ^ resp)
              else begin
                Thread.delay 0.05;
                wait ()
              end
            in
            let healed = wait () in
            check_contains "healed answer is a real one" healed {|"betti"|};
            check bool "prober revived the healed backend" true
              (List.exists (fun (_, alive) -> alive) (Router.backends r)));
  ]

(* ------------------------------------------------------------------ *)
(* Late responses without a ledger of timed-out ids                    *)
(* ------------------------------------------------------------------ *)

(* a server that grants the binary codec on the hello and then reads
   and discards every frame: each windowed request times out and its
   response never arrives *)
let with_sink_server f =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 8;
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  let stop = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          match Unix.accept fd with
          | cfd, _ ->
              let r = Frame.reader () in
              let buf = Bytes.create 65536 in
              let answered = ref false in
              (try
                 let rec loop () =
                   (match Frame.next r with
                   | Some _ when not !answered ->
                       answered := true;
                       let out =
                         Frame.encode
                           {|{"ok":true,"version":2,"pipeline":true,"codec":"binary"}|}
                       in
                       let n = String.length out in
                       let off = ref 0 in
                       while !off < n do
                         off :=
                           !off + Unix.write_substring cfd out !off (n - !off)
                       done
                   | Some _ -> ()
                   | None ->
                       let n = Unix.read cfd buf 0 (Bytes.length buf) in
                       if n = 0 then raise Exit;
                       Frame.feed r buf 0 n);
                   loop ()
                 in
                 loop ()
               with _ -> ());
              (try Unix.close cfd with _ -> ())
          | exception _ -> ()
        done)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      (try
         let k = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
         (try
            Unix.connect k (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
          with _ -> ());
         try Unix.close k with _ -> ()
       with _ -> ());
      Thread.join th;
      try Unix.close fd with _ -> ())
    (fun () -> f (loopback port))

let late_response_tests =
  [
    Alcotest.test_case "a flood of timeouts keeps the connection" `Quick
      (fun () ->
        with_sink_server @@ fun addr ->
        let c =
          Client.create ~metrics:"t.flood" ~timeout_ms:150 ~retries:0
            ~backoff_ms:1 ~pipeline_depth:1200 addr
        in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        let lines =
          List.init 1200 (fun i ->
              Printf.sprintf {|{"op":"psph","n":%d,"values":1}|} i)
        in
        let rs = Client.pipeline c lines in
        check bool "every request timed out" true
          (List.for_all (function Error Client.Timeout -> true | _ -> false) rs);
        check int "each slot expired once" 1200
          (Obs.counter_value (Obs.counter "t.flood.timeouts"));
        check int "nothing arrived to be stale" 0
          (Obs.counter_value (Obs.counter "t.flood.stale_response"));
        check int "the connection survived" 1
          (Obs.counter_value (Obs.counter "t.flood.reconnects")));
    Alcotest.test_case "a late windowed response never answers an escape"
      `Quick (fun () ->
        (* the slow hot op (n=9) times out at 0.5s and its answer lands
           at 0.6s, while the escaped request sent after it is still
           waiting for its own answer (due at about 0.8s, deadline
           1.0s) *)
        with_engine @@ fun engine ->
        with_server
          ~dispatch:(fun job -> ignore (Thread.create job ()))
          (fun line ->
            if contains line {|"op":"psph"|} then begin
              if contains line {|"n":9|} then Thread.delay 0.6;
              Serve.handle_line engine line
            end
            else begin
              Thread.delay 0.3;
              {|{"ok":true,"escaped":true}|}
            end)
        @@ fun _srv addr ->
        let c =
          Client.create ~metrics:"t.latebar" ~timeout_ms:500 ~retries:0
            ~backoff_ms:1 ~pipeline_depth:2 addr
        in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        (match Client.pipeline c [ {|{"op":"psph","n":9,"values":1}|} ] with
        | [ Error Client.Timeout ] -> ()
        | _ -> fail "the slow request should time out");
        (match Client.pipeline c [ {|{"op":"echo"}|} ] with
        | [ Ok resp ] ->
            check string "the escape gets its own answer"
              {|{"ok":true,"escaped":true}|} resp
        | [ Error e ] -> fail (Client.error_message e)
        | _ -> fail "wrong arity");
        check int "the late answer was dropped as stale" 1
          (Obs.counter_value (Obs.counter "t.latebar.stale_response"));
        check int "the connection survived" 1
          (Obs.counter_value (Obs.counter "t.latebar.reconnects")));
    Alcotest.test_case "a timed-out escape keeps the connection" `Quick
      (fun () ->
        (* the slow escape times out at 0.5s in place; its late answer
           (0.6s) is stale, and the next escape (answered at about
           0.8s) gets its own answer on the same connection *)
        with_server
          ~dispatch:(fun job -> ignore (Thread.create job ()))
          (fun line ->
            if contains line {|"op":"slow"|} then begin
              Thread.delay 0.6;
              {|{"ok":true,"slow":true}|}
            end
            else begin
              Thread.delay 0.3;
              {|{"ok":true,"echo":true}|}
            end)
        @@ fun _srv addr ->
        let c =
          Client.create ~metrics:"t.lateesc" ~timeout_ms:500 ~retries:0
            ~backoff_ms:1 ~pipeline_depth:2 addr
        in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        (match Client.pipeline c [ {|{"op":"slow","id":1}|} ] with
        | [ Error Client.Timeout ] -> ()
        | _ -> fail "the slow escape should time out");
        (match Client.pipeline c [ {|{"op":"echo","id":2}|} ] with
        | [ Ok resp ] ->
            check string "the next escape gets its own answer"
              {|{"ok":true,"echo":true}|} resp
        | [ Error e ] -> fail (Client.error_message e)
        | _ -> fail "wrong arity");
        check int "the late escaped answer was dropped as stale" 1
          (Obs.counter_value (Obs.counter "t.lateesc.stale_response"));
        check int "one timeout" 1
          (Obs.counter_value (Obs.counter "t.lateesc.timeouts"));
        check int "the connection survived" 1
          (Obs.counter_value (Obs.counter "t.lateesc.reconnects")));
  ]

let suites =
  [
    ("net addr", addr_tests);
    ("net frame", frame_tests @ frame_props);
    ("net loopback", loopback_tests);
    ("net codec", codec_props @ codec_tests);
    ("net pipeline", pipeline_tests);
    ("net reset taxonomy", reset_tests);
    ("net router", router_tests);
    ("net ring", ring_props @ [ ring_balance_test ]);
    ("net replica", replica_tests);
    ("net cluster", cluster_tests);
    ("net late response", late_response_tests);
  ]
