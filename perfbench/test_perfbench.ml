(* Tests of the benchmark's own logic: seeded inputs, the all-miss cyclic
   order, the tail-sample rule, span self times and the oracle. *)

open Perfbench
open Psph_topology
open Pseudosphere
module Engine = Psph_engine.Engine
module Codec = Psph_net.Codec

let schedule seed =
  Tables.schedule ~seed ~rate:5000. ~duration:0.5 ~conns:2 ~keys:64 ~zipf:1.0

let test_schedule_deterministic () =
  let a = schedule 7 and b = schedule 7 and c = schedule 8 in
  Alcotest.(check bool) "same seed, same schedule" true (a = b);
  Alcotest.(check bool) "another seed, another schedule" false (a = c);
  Alcotest.(check bool) "arrivals ordered in the window" true
    (Array.for_all (fun (x : Tables.arrival) -> x.at >= 0. && x.at < 0.5) a
    && fst
         (Array.fold_left
            (fun (ok, prev) (x : Tables.arrival) -> (ok && x.at >= prev, x.at))
            (true, 0.) a));
  Alcotest.(check bool) "orders are permutations, seeded" true
    (let p = Tables.shuffle ~seed:3 50 in
     List.sort compare (Array.to_list p) = List.init 50 Fun.id
     && p = Tables.shuffle ~seed:3 50
     && p <> Tables.shuffle ~seed:4 50)

(* cheap distinct-key model specs, evaluated by a real engine in the
   cyclic order of the benchmark *)
let small_items () =
  Tables.dedupe_by_key
    (List.concat_map
       (fun name ->
         let m = Model_complex.get name in
         List.map
           (fun s -> Tables.numeric_item Codec.Both (Codec.Model { model = name; spec = s }))
           (Tables.variants m ~n:2 ~r:1))
       [ "sync"; "semi"; "byz"; "iis" ])
  |> Array.of_list

let hits_over_cycles ~capacity items =
  let eng = Engine.create ~domains:0 ~capacity () in
  let order = Tables.shuffle ~seed:11 (Array.length items) in
  let h0 = (Engine.stats eng).hits in
  for i = 0 to (3 * Array.length items) - 1 do
    ignore (Engine.eval eng items.(Tables.cyclic order i).Tables.spec)
  done;
  (Engine.stats eng).hits - h0

let test_cyclic_all_miss () =
  let items = small_items () in
  let n = Array.length items in
  Alcotest.(check bool) "enough distinct keys" true (n >= 6);
  Alcotest.(check int) "cache below the table: no hit" 0
    (hits_over_cycles ~capacity:(n / 2) items);
  Alcotest.(check int) "cache one short of the table: still no hit" 0
    (hits_over_cycles ~capacity:(n - 1) items);
  Alcotest.(check bool) "cache holding the table: hits (the check bites)" true
    (hits_over_cycles ~capacity:n items > 0)

let test_tail_samples () =
  (* beyond = samples strictly after the nearest-rank position *)
  List.iter
    (fun (n, p) ->
      let s = Array.init n float_of_int in
      let q = Stats.quantile s p in
      let brute = Array.fold_left (fun a x -> if x > q then a + 1 else a) 0 s in
      Alcotest.(check int) (Printf.sprintf "beyond n=%d p=%g" n p) brute (Stats.beyond n p))
    [ (1, 50.); (56, 95.); (224, 95.); (280, 95.); (1000, 99.); (1009, 99.); (7, 90.) ];
  (* a closed-loop slice is the fewest whole cycles that keep ten
     samples beyond the tail *)
  List.iter
    (fun (cycle, p) ->
      let k = Closed.cycles_per_slice ~cycle ~tail_p:p in
      Alcotest.(check bool) (Printf.sprintf "cycle %d p%g: %d cycles keep ten" cycle p k) true
        (Stats.beyond (k * cycle) p >= Closed.min_beyond);
      Alcotest.(check bool) "one cycle fewer does not" true
        (k = 1 || Stats.beyond ((k - 1) * cycle) p < Closed.min_beyond))
    [ (56, 95.5); (235, 99.); (1000, 99.); (3, 50.) ]

let span name id parent start stop = { Spans.name; id; parent; start; stop }

let test_self_time () =
  (* root [0,10]; children [1,3] and [2,5] overlap, [8,12] sticks out;
     a grandchild never counts against the root *)
  let spans =
    [
      span "root" 1 None 0. 10.;
      span "a" 2 (Some 1) 1. 3.;
      span "b" 3 (Some 1) 2. 5.;
      span "c" 4 (Some 1) 8. 12.;
      span "a1" 5 (Some 2) 1.5 2.5;
      span "other" 6 None 20. 21.;
    ]
  in
  let self = Spans.self_time spans in
  let find n = List.find (fun (s : Spans.span) -> s.name = n) spans in
  let close = Alcotest.float 1e-9 in
  Alcotest.check close "root: 10 - |[1,5] u [8,10]|" 4. (self (find "root"));
  Alcotest.check close "a: 2 - 1" 1. (self (find "a"));
  Alcotest.check close "leaf" 3. (self (find "b"));
  Alcotest.check close "no children" 1. (self (find "other"));
  let totals = Spans.totals spans in
  Alcotest.(check (list string)) "totals by name"
    [ "a"; "a1"; "b"; "c"; "other"; "root" ]
    (List.map (fun (n, _, _, _) -> n) totals)

let result ?(tier = Engine.Numeric) ?betti ?connectivity key =
  Codec.Result
    {
      id = 1;
      key;
      cached = false;
      betti;
      connectivity;
      solver =
        Some { Engine.tier; rule = None; steps = None; cells_removed = None; checked = None };
    }

let test_oracle () =
  (* the boundary of a triangle: a circle *)
  let c =
    Complex.of_facets
      (List.map Complex_io.simplex_of_string [ "0:i0 ; 1:i1"; "1:i1 ; 2:i2"; "0:i0 ; 2:i2" ])
  in
  let n = Oracle.numeric_of_complex c in
  let truth = { Oracle.numeric = Some n; symbolic = None } in
  let ok r = Result.is_ok (Oracle.check truth r) in
  Alcotest.(check bool) "exact answer accepted" true
    (ok (result ~betti:n.betti ~connectivity:n.connectivity n.key));
  let corrupted = Array.copy n.betti in
  corrupted.(1) <- corrupted.(1) + 1;
  Alcotest.(check bool) "corrupted betti rejected" false
    (ok (result ~betti:corrupted ~connectivity:n.connectivity n.key));
  Alcotest.(check bool) "wrong key rejected" false
    (ok (result ~betti:n.betti ~connectivity:n.connectivity (String.make 32 '0')));
  Alcotest.(check bool) "error reply is no answer" false
    (ok (Codec.Failed { id = 1; message = "boom" }));
  (* a symbolic lower bound below the numeric connectivity is right *)
  let sym bound numeric_conn =
    {
      Oracle.numeric =
        Some { Oracle.key = "k"; betti = [||]; connectivity = numeric_conn };
      symbolic = Some ("s", bound);
    }
  in
  let sym_reply c = result ~tier:Engine.Symbolic ~connectivity:c "s" in
  Alcotest.(check bool) "bound below numeric accepted" true
    (Result.is_ok (Oracle.check (sym 1 3) (sym_reply 1)));
  Alcotest.(check bool) "bound above numeric rejected" false
    (Result.is_ok (Oracle.check (sym 4 3) (sym_reply 4)));
  Alcotest.(check bool) "answer differing from the solver rejected" false
    (Result.is_ok (Oracle.check (sym 1 3) (sym_reply 2)))

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "schedule deterministic per seed" `Quick
            test_schedule_deterministic;
          Alcotest.test_case "cyclic order misses with cache < table" `Quick
            test_cyclic_all_miss;
          Alcotest.test_case "tail keeps ten samples beyond" `Quick test_tail_samples;
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "oracle" `Quick test_oracle;
        ] );
    ]
