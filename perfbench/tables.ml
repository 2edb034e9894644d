(* The workloads' inputs: key tables drawn from the model registry, the
   seeded orders they are visited in, and the truth each answer is
   checked against.  Everything here is a pure function of the registry
   and the seed. *)

open Psph_topology
open Pseudosphere
module Engine = Psph_engine.Engine
module Key = Psph_engine.Key
module Codec = Psph_net.Codec
module Loadgen = Psph_load.Loadgen

type item = {
  label : string;  (** canonical spec string, for traces and errors *)
  want : Codec.want;
  query : Codec.query;
  spec : Engine.spec;
  line : string;  (** the JSON-lines request (v1 transport) *)
  truth : Oracle.truth;
  simplices : int;  (** of the built complex; 0 when never built *)
}

let spec_of_query = function
  | Codec.Psph { n; values } -> Engine.Psph { n; values }
  | Codec.Model { model; spec } -> Engine.Model { model; params = spec }
  | Codec.Facets strs ->
      Engine.Explicit
        (Complex.of_facets (List.map Complex_io.simplex_of_string strs))

let label_of_query = function
  | Codec.Psph { n; values } -> Printf.sprintf "psph:n=%d,values=%d" n values
  | Codec.Model { model; spec } ->
      Model_complex.encode (Model_complex.get model) spec
  | Codec.Facets strs -> "facets:" ^ String.concat ";" strs

(* an item answered by the numeric tier (or the cache): truth is direct
   elimination on the complex the query denotes, returned alongside *)
let numeric_item_of want query =
  let spec = spec_of_query query in
  let c = Engine.build spec in
  ( {
      label = label_of_query query;
      want;
      query;
      spec;
      line = Codec.json_line_of_query want query;
      truth = { numeric = Some (Oracle.numeric_of_complex c); symbolic = None };
      simplices = Complex.num_simplices c;
    },
    c )

let numeric_item want query = fst (numeric_item_of want query)

(* every registered model's small parameter settings at (n, r): f and k
   in {1, 2}, p = 2, and each declared extension parameter over the codes
   0..2 the model accepts — normalized by the model and deduplicated on
   its canonical encoding *)
let variants m ~n ~r =
  let (module M : Model_complex.MODEL) = m in
  let exts =
    List.fold_right
      (fun (ep : Model_complex.ext_param) acc ->
        List.concat_map
          (fun v -> List.map (fun e -> (ep.ep_name, v) :: e) acc)
          [ 0; 1; 2 ])
      M.ext_params [ [] ]
  in
  let specs =
    List.concat_map
      (fun f ->
        List.concat_map
          (fun k ->
            List.filter_map
              (fun ext ->
                match M.validate { Model_complex.n; f; k; p = 2; r; ext } with
                | Ok s -> Some s
                | Error _ -> None)
              exts)
          [ 1; 2 ])
      [ 1; 2 ]
  in
  let seen = Hashtbl.create 16 in
  List.filter
    (fun s ->
      let e = Model_complex.encode m s in
      if Hashtbl.mem seen e then false
      else (
        Hashtbl.add seen e ();
        true))
    specs

let dedupe_by_key items =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun it ->
      match it.truth.numeric with
      | Some n when Hashtbl.mem seen n.key -> false
      | Some n ->
          Hashtbl.add seen n.key ();
          true
      | None -> true)
    items

(* ------------------------------------------------------------------ *)
(* hot_binary                                                          *)
(* ------------------------------------------------------------------ *)

let hot_keyspace = 64

let hot_zipf = 1.0

let hot () =
  Array.map (numeric_item Codec.Both) (Loadgen.queries ~keyspace:hot_keyspace)

(* ------------------------------------------------------------------ *)
(* cold_numeric                                                        *)
(* ------------------------------------------------------------------ *)

(* the bench gate of bench/main.ml: a second round multiplies the facet
   count by the per-facet fan-out, so r = 2 is refused above 1024 r = 1
   facets *)
let r2_facet_gate = 1024

(* and a cost gate: r = 2 only over r = 1 complexes of at most 256
   simplices, which keeps every spec's served cost near or below 0.3 s
   (the refused ones cost 0.2 s to 16 s on a 2-core x86 machine) *)
let r2_simplex_gate = 256

let cold () =
  let items =
    List.concat_map
      (fun m ->
        List.concat_map
          (fun n ->
            List.concat_map
              (fun (s1 : Model_complex.spec) ->
                let model = Model_complex.name_of m in
                let item s =
                  numeric_item_of Codec.Both (Codec.Model { model; spec = s })
                in
                let i1, c1 = item s1 in
                if
                  List.length (Complex.facets c1) <= r2_facet_gate
                  && i1.simplices <= r2_simplex_gate
                then [ i1; fst (item { s1 with r = 2 }) ]
                else [ i1 ])
              (variants m ~n ~r:1))
          [ 2; 3 ])
      (Model_complex.all ())
  in
  (* distinct content keys only: two specs denoting the same complex
     would share a cache slot and turn a planned miss into a hit *)
  Array.of_list (dedupe_by_key items)

(* ------------------------------------------------------------------ *)
(* routed_json                                                         *)
(* ------------------------------------------------------------------ *)

let conn_line fields =
  Psph_obs.Jsonl.(to_string (Obj ((("op", Str "connectivity") :: fields))))

(* numeric truth for a symbolic query is affordable only for small
   complexes: n = 4, r = 1 of a model whose n = 3 round stays within
   1024 simplices, and pseudospheres of at most 4096 facets *)
let cheap_numeric = function
  | Engine.Psph { n; values } -> Float.pow (float values) (float (n + 1)) <= 4096.
  | Engine.Model { model; params } ->
      params.Model_complex.n = 4 && params.r = 1
      && Complex.num_simplices
           (Engine.build
              (Engine.Model { model; params = { params with n = 3 } }))
         <= 1024
  | Engine.Explicit _ -> false

let symbolic_item ~line query (s : Solver.symbolic) =
  let spec = spec_of_query query and label = label_of_query query in
  let numeric, simplices =
    if cheap_numeric spec then
      let c = Engine.build spec in
      (Some (Oracle.numeric_of_complex c), Complex.num_simplices c)
    else (None, 0)
  in
  {
    label;
    want = Codec.Connectivity;
    query;
    spec;
    line;
    truth =
      {
        numeric;
        symbolic = Some (Key.to_hex (Key.of_string label), s.Solver.connectivity);
      };
    simplices;
  }

let routed_conn () =
  let models =
    List.concat_map
      (fun m ->
        let model = Model_complex.name_of m in
        List.concat_map
          (fun n ->
            List.concat_map
              (fun r ->
                List.filter_map
                  (fun (s : Model_complex.spec) ->
                    match Solver.symbolic_model m s with
                    | None | (exception Invalid_argument _) -> None
                    | Some sym ->
                        let line =
                          conn_line
                            ([
                               ("model", Psph_obs.Jsonl.Str model);
                               ("n", Psph_obs.Jsonl.int s.n);
                               ("f", Psph_obs.Jsonl.int s.f);
                               ("k", Psph_obs.Jsonl.int s.k);
                               ("p", Psph_obs.Jsonl.int s.p);
                               ("r", Psph_obs.Jsonl.int s.r);
                             ]
                            @ List.map
                                (fun (k, v) -> (k, Psph_obs.Jsonl.int v))
                                s.ext)
                        in
                        Some (symbolic_item ~line (Codec.Model { model; spec = s }) sym))
                  (variants m ~n ~r))
              [ 1; 2; 3 ])
          [ 4; 5; 6; 7; 8 ])
      (Model_complex.all ())
  in
  let psphs =
    List.concat_map
      (fun n ->
        List.filter_map
          (fun values ->
            match Solver.symbolic_psph ~n ~values with
            | None -> None
            | Some sym ->
                let line =
                  conn_line
                    [ ("n", Psph_obs.Jsonl.int n); ("values", Psph_obs.Jsonl.int values) ]
                in
                Some (symbolic_item ~line (Codec.Psph { n; values }) sym))
          [ 2; 3; 4 ])
      [ 4; 5; 6; 7; 8 ]
  in
  models @ psphs

(* the warm betti repeats: every registered model's default spec *)
let routed_betti () =
  List.map
    (fun m ->
      numeric_item Codec.Both
        (Codec.Model
           {
             model = Model_complex.name_of m;
             spec = { Model_complex.default_spec with n = 2; r = 1 };
           }))
    (Model_complex.all ())

(* share of betti repeats in the routed cycle: one in five requests *)
let routed_betti_per_conn = 4

let routed () =
  let conn = routed_conn () and betti = routed_betti () in
  let nb = max 1 (List.length conn / routed_betti_per_conn) in
  let betti = Array.of_list betti in
  Array.of_list
    (conn @ List.init nb (fun j -> betti.(j mod Array.length betti)))

(* ------------------------------------------------------------------ *)
(* orders                                                              *)
(* ------------------------------------------------------------------ *)

(* a seeded permutation of 0..n-1 (Fisher-Yates) *)
let shuffle ~seed n =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* request [i] of a cyclic workload visits [order.(i mod n)]: every item
   once per cycle, in the same seeded order every cycle *)
let cyclic order i = order.(i mod Array.length order)

type arrival = { at : float;  (** seconds after the window opens *) key : int; conn : int }

(* the open-loop schedule: Poisson arrivals at [rate] over [duration]
   seconds, zipf([zipf])-ranked keys, connections round-robin *)
let schedule ~seed ~rate ~duration ~conns ~keys ~zipf =
  let rng = Random.State.make [| seed; 0xa11 |] in
  let cdf = Loadgen.zipf_cdf ~k:keys ~s:zipf in
  let rec go acc i t =
    let t = t -. (log (1. -. Random.State.float rng 1.) /. rate) in
    if t >= duration then Array.of_list (List.rev acc)
    else
      let key = Loadgen.sample_rank cdf rng in
      go ({ at = t; key; conn = i mod conns } :: acc) (i + 1) t
  in
  go [] 0 0.
