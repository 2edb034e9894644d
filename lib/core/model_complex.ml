open Psph_obs
open Psph_topology
open Psph_model

type ext = (string * int) list

type spec = { n : int; f : int; k : int; p : int; r : int; ext : ext }

let default_spec = { n = 2; f = 1; k = 1; p = 2; r = 1; ext = [] }

(* ------------------------------------------------------------------ *)
(* model-owned extension parameters                                    *)
(* ------------------------------------------------------------------ *)

type ext_param = {
  ep_name : string;
  ep_doc : string;
  ep_default : int;
  ep_parse : string -> (int, string) result;
  ep_show : int -> string;
}

let int_param ~name ~doc ~default =
  {
    ep_name = name;
    ep_doc = doc;
    ep_default = default;
    ep_parse =
      (fun s ->
        match int_of_string_opt s with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "%s: expected an integer, got %S" name s));
    ep_show = string_of_int;
  }

let enum_param ~name ~doc ~choices ~default =
  let parse s =
    match List.assoc_opt s choices with
    | Some v -> Ok v
    | None -> (
        match int_of_string_opt s with
        | Some v when List.exists (fun (_, i) -> i = v) choices -> Ok v
        | _ ->
            Error
              (Printf.sprintf "%s: expected one of %s" name
                 (String.concat "|" (List.map fst choices))))
  in
  let show v =
    match List.find_opt (fun (_, i) -> i = v) choices with
    | Some (nm, _) -> nm
    | None -> string_of_int v
  in
  { ep_name = name; ep_doc = doc; ep_default = default; ep_parse = parse;
    ep_show = show }

(* declared order, defaults filled in, unknown keys dropped — so every
   canonical ext of a model has the same shape and [encode] stays
   injective on what the model actually reads *)
let canonical_ext params ext =
  List.map
    (fun p ->
      ( p.ep_name,
        match List.assoc_opt p.ep_name ext with
        | Some v -> v
        | None -> p.ep_default ))
    params

let ext_value spec name ~default =
  match List.assoc_opt name spec.ext with Some v -> v | None -> default

module type MODEL = sig
  val name : string
  val doc : string
  val ext_params : ext_param list
  val normalize : spec -> spec
  val validate : spec -> (spec, string) result
  val one_round : spec -> Simplex.t -> Complex.t
  val rounds : spec -> Simplex.t -> Complex.t
  val over_inputs : spec -> Complex.t -> Complex.t
  val pseudosphere_decomposition : (spec -> Simplex.t -> Psph.t Seq.t) option
  val expected_connectivity : spec -> m:int -> int option
  val connectivity_lemma : string
end

type model = (module MODEL)

(* ------------------------------------------------------------------ *)
(* registry                                                            *)
(* ------------------------------------------------------------------ *)

let registry : (string, model) Hashtbl.t = Hashtbl.create 8

(* registration order drives every listing (CLI enums, serve, benches) *)
let order : string list ref = ref []

let name_of (module M : MODEL) = M.name

let ext_params_of (module M : MODEL) = M.ext_params

let encode_with (module M : MODEL) spec =
  let { n; f; k; p; r; ext } = M.normalize spec in
  let base = Printf.sprintf "%s:n=%d,f=%d,k=%d,p=%d,r=%d" M.name n f k p r in
  (* models without extensions keep the exact historical key format, so
     existing on-disk memo stores and warmed replicas stay valid *)
  match ext with
  | [] -> base
  | ext ->
      base
      ^ String.concat ""
          (List.map (fun (key, v) -> Printf.sprintf ",%s=%d" key v) ext)

(* every registered model's complex constructions run inside
   [model.one_round] / [model.rounds] spans carrying the canonical spec,
   so model cost is attributed in traces no matter which front end (psc,
   serve, engine, tests) asked — models register plain code and get
   instrumentation for free *)
let instrument ((module M : MODEL) : model) : model =
  (module struct
    include M

    let one_round spec s =
      Obs.with_span "model.one_round"
        ~attrs:[ ("spec", Jsonl.Str (encode_with (module M) spec)) ]
        (fun _ -> M.one_round spec s)

    let rounds spec s =
      Obs.with_span "model.rounds"
        ~attrs:[ ("spec", Jsonl.Str (encode_with (module M) spec)) ]
        (fun _ -> M.rounds spec s)

    let over_inputs spec c =
      Obs.with_span "model.over_inputs"
        ~attrs:[ ("spec", Jsonl.Str (encode_with (module M) spec)) ]
        (fun _ -> M.over_inputs spec c)
  end)

let register ((module M : MODEL) as m) =
  if Hashtbl.mem registry M.name then
    invalid_arg ("Model_complex.register: duplicate model " ^ M.name);
  Hashtbl.replace registry M.name (instrument m);
  order := !order @ [ M.name ]

let names () = !order

let find name = Hashtbl.find_opt registry name

let get name =
  match find name with
  | Some m -> m
  | None ->
      invalid_arg
        (Printf.sprintf "unknown model %S (available: %s)" name
           (String.concat ", " (names ())))

let all () = List.map (fun n -> Hashtbl.find registry n) !order

let encode = encode_with

(* ------------------------------------------------------------------ *)
(* the generic Lemma 11/14/19 relabelling                              *)
(* ------------------------------------------------------------------ *)

let intrinsic_map ~n = function
  | Vertex.Proc (q, l) -> (
      match View.of_label l with
      | View.Round { heard; _ } ->
          Vertex.proc q (Label.Pid_set (Pid.Set.of_list (List.map fst heard)))
      | View.Timed_round { heard; _ } ->
          let vec = Array.make (n + 1) 0 in
          List.iter (fun (j, mu, _) -> vec.(j) <- mu) heard;
          Vertex.proc q (Label.Vec vec)
      | View.Init _ ->
          invalid_arg "Model_complex.intrinsic_map: not a one-round view")
  | (Vertex.Anon _ | Vertex.Bary _) as v -> v

let decomposition_holds (module M : MODEL) spec s =
  match M.pseudosphere_decomposition with
  | None -> true
  | Some pieces ->
      let lhs = M.one_round spec s in
      let rhs =
        Seq.fold_left
          (fun acc ps ->
            Complex.union acc (Psph.realize ~vertex:Psph.default_vertex ps))
          Complex.empty (pieces spec s)
      in
      Simplicial_map.is_isomorphism_via (intrinsic_map ~n:spec.n) lhs rhs

(* ------------------------------------------------------------------ *)
(* shared validation                                                   *)
(* ------------------------------------------------------------------ *)

let check_common spec =
  if spec.n < 0 then Error "n must be >= 0"
  else if spec.r < 0 then Error "r must be >= 0"
  else Ok spec

let ( let* ) r f = Result.bind r f

(* ------------------------------------------------------------------ *)
(* instances                                                           *)
(* ------------------------------------------------------------------ *)

module Async_model = struct
  let name = "async"
  let doc = "Build the asynchronous complex A^r (Section 6)."
  let ext_params = []
  let normalize spec = { spec with k = 0; p = 0; ext = [] }

  let validate spec =
    let* spec = check_common spec in
    if spec.f < 0 then Error "f must be >= 0"
    else if spec.f > spec.n then Error "f must be <= n"
    else Ok (normalize spec)

  let one_round { n; f; _ } s = Async_complex.one_round ~n ~f s
  let rounds { n; f; r; _ } s = Async_complex.rounds ~n ~f ~r s
  let over_inputs { n; f; r; _ } c = Async_complex.over_inputs ~n ~f ~r c

  let pseudosphere_decomposition =
    Some (fun { n; f; _ } s -> Seq.return (Async_complex.pseudosphere ~n ~f s))

  (* Lemma 12: no hypothesis beyond the parameters themselves *)
  let expected_connectivity { n; f; _ } ~m =
    Some (Async_complex.lemma12_expected_connectivity ~m ~n ~f)

  let connectivity_lemma = "Lemma 12"
end

module Sync_model = struct
  let name = "sync"
  let doc = "Build the synchronous complex S^r (Section 7)."
  let ext_params = []
  let normalize spec = { spec with f = 0; p = 0; ext = [] }

  let validate spec =
    let* spec = check_common spec in
    if spec.k < 0 then Error "k must be >= 0" else Ok (normalize spec)

  let one_round { k; _ } s = Sync_complex.one_round ~k s
  let rounds { k; r; _ } s = Sync_complex.rounds ~k ~r s
  let over_inputs { k; r; _ } c = Sync_complex.over_inputs ~k ~r c

  let pseudosphere_decomposition =
    Some (fun { k; _ } s -> Seq.map snd (Sync_complex.pseudosphere_seq ~k s))

  (* Lemma 16/17: needs n >= rk + k *)
  let expected_connectivity { n; k; r; _ } ~m =
    if n >= (r * k) + k then
      Some (Sync_complex.lemma16_expected_connectivity ~m ~n ~k)
    else None

  let connectivity_lemma = "Lemma 16/17"
end

module Semi_sync_model = struct
  let name = "semi"
  let doc = "Build the semi-synchronous complex M^r (Section 8)."
  let ext_params = []
  let normalize spec = { spec with f = 0; ext = [] }

  let validate spec =
    let* spec = check_common spec in
    if spec.k < 0 then Error "k must be >= 0"
    else if spec.p < 1 then Error "p must be >= 1"
    else Ok (normalize spec)

  let one_round { n; k; p; _ } s = Semi_sync_complex.one_round ~k ~p ~n s
  let rounds { n; k; p; r; _ } s = Semi_sync_complex.rounds ~k ~p ~n ~r s
  let over_inputs { n; k; p; r; _ } c = Semi_sync_complex.over_inputs ~k ~p ~n ~r c

  let pseudosphere_decomposition =
    Some
      (fun { n; k; p; _ } s ->
        Seq.map snd (Semi_sync_complex.pseudosphere_seq ~k ~p ~n s))

  (* Lemma 21: needs n >= (r + 1) k *)
  let expected_connectivity { n; k; r; _ } ~m =
    if n >= (r + 1) * k then
      Some (Semi_sync_complex.lemma21_expected_connectivity ~m ~n ~k)
    else None

  let connectivity_lemma = "Lemma 21"
end

(* The extensibility proof: the wait-free iterated-immediate-snapshot
   model, registered as a fourth instance.  Nothing outside this block
   knows about it, yet it is reachable from psc, psc serve, the engine
   cache, benches and the generic tests. *)
module Iis_model = struct
  let name = "iis"
  let doc = "Build the iterated immediate snapshot complex (Borowsky-Gafni)."
  let ext_params = []
  let normalize spec = { spec with f = 0; k = 0; p = 0; ext = [] }
  let validate spec = Result.map normalize (check_common spec)
  let one_round _ s = Iis_complex.one_round s
  let rounds { r; _ } s = Iis_complex.rounds ~r s
  let over_inputs { r; _ } c = Iis_complex.over_inputs ~r c

  (* a chromatic subdivision, not a union of pseudospheres *)
  let pseudosphere_decomposition = None

  (* a subdivision of the input simplex is contractible *)
  let expected_connectivity _ ~m = Some m

  let connectivity_lemma = "subdivision contractible"
end

(* The Byzantine synchronous model (Mendes-Herlihy): [k] exposures per
   round out of a total corruption budget [t], with per-receiver
   equivocation.  The first instance exercising the extension payload. *)
module Byz_model = struct
  let name = "byz"
  let doc = "Build the Byzantine synchronous complex (Mendes-Herlihy)."

  let ext_params =
    [
      int_param ~name:"t" ~doc:"total Byzantine corruption budget" ~default:1;
      enum_param ~name:"equiv" ~doc:"equivocation mode"
        ~choices:[ ("none", 0); ("binary", 1) ]
        ~default:1;
    ]

  let normalize spec =
    { spec with f = 0; p = 0; ext = canonical_ext ext_params spec.ext }

  let params spec =
    let t = ext_value spec "t" ~default:1 in
    let equiv = ext_value spec "equiv" ~default:1 in
    (t, 1 + equiv)

  let validate spec =
    let* spec = check_common spec in
    let spec = normalize spec in
    let t = ext_value spec "t" ~default:1 in
    let equiv = ext_value spec "equiv" ~default:1 in
    if spec.k < 0 then Error "k must be >= 0"
    else if t < 0 then Error "t must be >= 0"
    else if equiv < 0 || equiv > 1 then
      Error "equiv must be none (0) or binary (1)"
    else Ok spec

  let one_round ({ n; k; _ } as spec) s =
    let t, versions = params spec in
    Byz_complex.one_round ~n ~k ~t ~versions s

  let rounds ({ n; k; r; _ } as spec) s =
    let t, versions = params spec in
    Byz_complex.rounds ~n ~k ~t ~versions ~r s

  let over_inputs ({ n; k; r; _ } as spec) c =
    let t, versions = params spec in
    Byz_complex.over_inputs ~n ~k ~t ~versions ~r c

  (* the pieces are pseudospheres but their value labels are already
     intrinsic (claim lists), not full-information views, so the generic
     Lemma 11/14/19 relabelling does not apply *)
  let pseudosphere_decomposition = None

  let expected_connectivity ({ n; k; r; _ } as spec) ~m =
    let t, _ = params spec in
    Byz_complex.expected_connectivity ~m ~n ~k ~t ~r

  let connectivity_lemma = "Mendes-Herlihy ceil(t/k)-round bound"
end

(* Directed dynamic networks: no failures at all, just a per-round
   communication digraph drawn from an adversary class. *)
module Dyn_net_model = struct
  let name = "dyn"
  let doc = "Build the directed dynamic-network complex (message adversary)."

  let ext_params =
    [
      enum_param ~name:"adv" ~doc:"message-adversary class"
        ~choices:[ ("rooted", 0); ("strong", 1); ("all", 2) ]
        ~default:0;
    ]

  let normalize spec =
    { spec with f = 0; k = 0; p = 0; ext = canonical_ext ext_params spec.ext }

  let adversary spec =
    Dyn_net_complex.adversary_of_int (ext_value spec "adv" ~default:0)

  let adv_exn spec =
    match adversary spec with
    | Some a -> a
    | None -> invalid_arg "dyn: invalid adversary class"

  let validate spec =
    let* spec = check_common spec in
    let spec = normalize spec in
    match adversary spec with
    | Some _ -> Ok spec
    | None -> Error "adv must be rooted (0), strong (1) or all (2)"

  let one_round spec s = Dyn_net_complex.one_round (adv_exn spec) s
  let rounds ({ r; _ } as spec) s = Dyn_net_complex.rounds (adv_exn spec) ~r s

  let over_inputs ({ r; _ } as spec) c =
    Dyn_net_complex.over_inputs (adv_exn spec) ~r c

  let pseudosphere_decomposition = None

  let expected_connectivity ({ r; _ } as spec) ~m =
    Dyn_net_complex.expected_connectivity (adv_exn spec) ~m ~r

  let connectivity_lemma = "rooted-adversary connectedness"
end

let () =
  register (module Async_model);
  register (module Sync_model);
  register (module Semi_sync_model);
  register (module Iis_model);
  register (module Byz_model);
  register (module Dyn_net_model)
