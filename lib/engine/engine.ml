(* The query engine: canonicalize -> cache -> compute.

   A query names a complex either explicitly or symbolically (pseudosphere
   or protocol-complex parameters).  Evaluation is content-addressed: the
   complex's canonical {!Key.t} selects the slot in the LRU memo store, so
   structurally-equal queries coalesce no matter how they were phrased.
   On a miss the reduced-homology ranks are computed in the calling
   thread and the answer (Betti vector + connectivity) is cached under
   the key.  The engine's Domain pool runs whole requests ([dispatch]),
   never parts of one.

   Symbolic specs get a second, cheaper canonicalization layer in front:
   a normalized spec (model specs canonicalized by the registered model's
   own [normalize], via [Model_complex.encode]) maps to the content
   key of the complex it denotes, so a repeated [psph]/[model-complex]
   query skips construction and keying entirely and goes straight to the
   content slot.  This front table is what makes a warm cache fast —
   building the complex just to hash it costs more than the lookup it
   guards — while the content key underneath still unifies a symbolic
   query with an [Explicit] copy of the same complex.  The front table is
   bounded at twice the LRU's capacity (an open spec keyspace must not
   grow memory forever): past that, bindings whose answer the LRU has
   evicted are dropped, and if that is not enough the table starts over.
   The bounded LRU holds the actual answers, and a spec whose binding or
   answer is gone just recomputes and re-enters.

   Observability: every [eval] runs in an [engine.query] root span
   carrying the content key and the hit/miss outcome, so a trace can tell
   a cache hit from a cold compute at a glance; build and compute wall
   time go to the [engine.build_s] / [engine.compute_s] histograms, the
   query count to the [engine.queries] counter, and the cache and pool
   report themselves under [engine.cache.*] / [engine.pool.*].  There is
   no private timing state left in this module — [stats] is a read of the
   {!Obs} registry, which also means it aggregates across every engine
   instance in the process.

   Thread-safety: the engine lock guards both tables.  The underlying
   computations are safe to run on worker domains because every table
   they use is built per call (the {!Simplex_index} of one complex, a
   compose memo) and everything else on the path is immutable (a racing
   duplicate miss computes the same answer twice and the second
   [Lru.add] is a no-op overwrite — wasteful, never wrong). *)

open Psph_obs
open Psph_topology
open Pseudosphere

type spec =
  | Explicit of Complex.t
  | Psph of { n : int; values : int }
  | Model of { model : string; params : Model_complex.spec }

type answer = { betti : int array; connectivity : int }

(* which solver tier produced an answer, and what it did along the way —
   carried into wire responses as the "solver" field *)
type tier = Cached | Symbolic | Numeric

type provenance = {
  tier : tier;
  rule : string option;  (* symbolic: the rule that concluded the bound *)
  steps : int option;  (* symbolic: proof size *)
  cells_removed : int option;
      (* never set, rendered or encoded (numeric misses skip the Morse
         precollapse); kept only so record literals naming it compile *)
  checked : int option;  (* check mode: the symbolic bound verified against *)
}

type mode = Auto | Symbolic_only | Numeric_only | Check

type result = { key : Key.t; answer : answer; cached : bool; solver : provenance }

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  cache_len : int;
  jobs : int;
  queries : int;
  domains : int;
  build_s : float;
  compute_s : float;
}

(* canonical form of a symbolic spec: model specs go through the model's
   own [normalize] (via [Model_complex.encode]), so parameters a model
   ignores can never mis-key the cache — the model owns its discipline,
   the engine just asks.
   @raise Invalid_argument on an unknown model name. *)
type spec_key = SPsph of int * int | SModel of string

let spec_key_of = function
  | Explicit _ -> None
  | Psph { n; values } -> Some (SPsph (n, values))
  | Model { model; params } ->
      Some (SModel (Model_complex.encode (Model_complex.get model) params))

(* metric handles are created eagerly at module initialization: a [lazy]
   handle forced by two worker domains at once raises
   [CamlinternalLazy.Undefined], and the registry's get-or-create is
   already lock-guarded *)
let queries_c = Obs.counter "engine.queries"

let symbolic_hits_c = Obs.counter "solver.symbolic_hit"

let build_h = Obs.histogram "engine.build_s"

let compute_h = Obs.histogram "engine.compute_s"

let spec_memo_g = Obs.gauge "engine.spec_memo"

type t = {
  pool : Pool.t;
  cache : (Key.t, answer) Lru.t;
  spec_memo : (spec_key, Key.t) Hashtbl.t;
  lock : Mutex.t;
  persist : string option;
}

let default_domains () =
  min 4 (max 1 (Domain.recommended_domain_count () - 1))

(* warming inserts finished answers straight into the memo cache
   (content addressing makes a stale entry harmless — it can only be the
   same answer), snapshot exports the cache in store-entry form.  The
   on-disk store ([create]/[flush]) and replication (streaming to a
   peer) both go through them. *)
let warm t entries =
  Mutex.lock t.lock;
  let n =
    List.fold_left
      (fun n (key, (e : Store.entry)) ->
        Lru.add t.cache key
          { betti = e.Store.betti; connectivity = e.Store.connectivity };
        n + 1)
      0 entries
  in
  Mutex.unlock t.lock;
  n

let snapshot t =
  Mutex.lock t.lock;
  let entries =
    List.map
      (fun (key, a) ->
        (key, { Store.betti = a.betti; connectivity = a.connectivity }))
      (Lru.to_list t.cache)
  in
  Mutex.unlock t.lock;
  entries

let create ?domains ?(capacity = 4096) ?persist () =
  let domains = match domains with Some d -> d | None -> default_domains () in
  let t =
    {
      pool = Pool.create ~metrics:"engine.pool" ~domains ();
      cache = Lru.create ~metrics:"engine.cache" ~capacity ();
      spec_memo = Hashtbl.create 64;
      lock = Mutex.create ();
      persist;
    }
  in
  Option.iter (fun path -> ignore (warm t (Store.load path))) persist;
  t

(* ------------------------------------------------------------------ *)
(* building complexes from specs                                       *)
(* ------------------------------------------------------------------ *)

let input_simplex = Solver.standard_input

let build = function
  | Explicit c -> c
  | Psph { n; values } ->
      if n < 0 || values < 0 then invalid_arg "Engine: psph needs n, values >= 0";
      Psph.realize ~vertex:Psph.default_vertex
        (Psph.uniform ~base:(Simplex.proc_simplex n)
           (List.init values (fun i -> Label.Int i)))
  | Model { model; params } -> (
      let (module M : Model_complex.MODEL) = Model_complex.get model in
      match M.validate params with
      | Error msg -> invalid_arg (Printf.sprintf "Engine: %s model: %s" model msg)
      | Ok params -> M.rounds params (input_simplex params.Model_complex.n))

(* ------------------------------------------------------------------ *)
(* evaluation                                                          *)
(* ------------------------------------------------------------------ *)

(* provenance constructors *)
let no_prov tier =
  { tier; rule = None; steps = None; cells_removed = None; checked = None }

let cached_prov = no_prov Cached

let numeric_prov = no_prov Numeric

let symbolic_prov (s : Solver.symbolic) =
  {
    (no_prov Symbolic) with
    rule = Some s.Solver.rule;
    steps = Some s.Solver.steps;
  }

(* the wire rendering of a provenance, shared by Serve (JSON) and the
   binary Codec's JSON mirror so the two stay byte-identical *)
let provenance_fields p =
  [
    ( "tier",
      Jsonl.Str
        (match p.tier with
        | Cached -> "cached"
        | Symbolic -> "symbolic"
        | Numeric -> "numeric") );
  ]
  @ (match p.rule with Some r -> [ ("rule", Jsonl.Str r) ] | None -> [])
  @ (match p.steps with Some s -> [ ("steps", Jsonl.int s) ] | None -> [])
  @ match p.checked with Some b -> [ ("checked", Jsonl.int b) ] | None -> []

(* Z/2 elimination straight over the built complex, with no
   discrete-Morse precollapse: on the served model specs
   {!Collapse.reduce} costs more than the elimination it saves (see the
   numbers in docs/TOPOLOGY.md). *)
let compute index c =
  let r, jobs = Homology.rank_jobs ~index c in
  List.iter (fun (d, job) -> r.(d) <- job ()) jobs;
  let betti, connectivity = Homology.of_ranks ~top:(Complex.dim c) c r in
  if betti <> [||] then betti.(0) <- betti.(0) + 1;
  { betti; connectivity }

(* bind a spec key to its content key, keeping the table within twice the
   LRU's capacity: a binding whose answer was evicted only saves a build
   the evicted-answer path in [cache_probe] pays anyway.  Caller holds
   the lock. *)
let remember_spec t sk key =
  Hashtbl.replace t.spec_memo sk key;
  let bound = 2 * Lru.capacity t.cache in
  if Hashtbl.length t.spec_memo > bound then begin
    Hashtbl.filter_map_inplace
      (fun _ key -> if Lru.mem t.cache key then Some key else None)
      t.spec_memo;
    if Hashtbl.length t.spec_memo > bound then Hashtbl.reset t.spec_memo
  end;
  Obs.gauge_set spec_memo_g (float_of_int (Hashtbl.length t.spec_memo))

(* slow path: build the complex, index it, key the index, consult the LRU;
   a miss eliminates over the same index.  [sk_opt] is the caller's spec
   key, recorded so the next occurrence of the same spec takes the fast
   path. *)
let eval_uncached t sk_opt spec =
  let t0 = Obs.monotonic () in
  let c = build spec in
  let index = Simplex_index.create c in
  let key = Key.of_index index in
  let t1 = Obs.monotonic () in
  Obs.observe build_h (t1 -. t0);
  Mutex.lock t.lock;
  Option.iter (fun sk -> remember_spec t sk key) sk_opt;
  let hit = Lru.find_opt t.cache key in
  Mutex.unlock t.lock;
  match hit with
  | Some answer -> { key; answer; cached = true; solver = cached_prov }
  | None ->
      let answer = Obs.time compute_h (fun () -> compute index c) in
      Mutex.lock t.lock;
      Lru.add t.cache key answer;
      Mutex.unlock t.lock;
      { key; answer; cached = false; solver = numeric_prov }

(* the spec-memo fast path: a warm slot answers without building *)
let cache_probe t spec =
  match spec_key_of spec with
  | None -> None
  | Some sk ->
      Mutex.lock t.lock;
      let fast =
        match Hashtbl.find_opt t.spec_memo sk with
        | None -> None
        | Some key -> (
            match Lru.find_opt t.cache key with
            | Some answer -> Some { key; answer; cached = true; solver = cached_prov }
            | None ->
                (* the answer was evicted; drop the binding and rebuild *)
                Hashtbl.remove t.spec_memo sk;
                Obs.gauge_set spec_memo_g
                  (float_of_int (Hashtbl.length t.spec_memo));
                None)
      in
      Mutex.unlock t.lock;
      fast

let eval_numeric t spec =
  match cache_probe t spec with
  | Some r -> r
  | None -> eval_uncached t (spec_key_of spec) spec

(* ------------------------------------------------------------------ *)
(* the symbolic tier                                                   *)
(* ------------------------------------------------------------------ *)

let symbolic_of_spec = function
  | Explicit _ -> None
  | Psph { n; values } -> Solver.symbolic_psph ~n ~values
  | Model { model; params } ->
      Solver.symbolic_model (Model_complex.get model) params

(* symbolic answers carry a key derived from the canonical spec string —
   the complex is never realized, so there is no content key to give *)
let symbolic_key = function
  | Explicit c -> Key.of_complex c
  | Psph { n; values } -> Key.of_string (Printf.sprintf "psph:n=%d,values=%d" n values)
  | Model { model; params } ->
      Key.of_string (Model_complex.encode (Model_complex.get model) params)

let symbolic_result spec (s : Solver.symbolic) =
  Obs.incr symbolic_hits_c;
  {
    key = symbolic_key spec;
    answer = { betti = [||]; connectivity = s.Solver.connectivity };
    cached = false;
    solver = symbolic_prov s;
  }

(* check mode: the numeric answer must satisfy the symbolic lower bound.
   Symbolic rules bound connectivity from below (Theorem 2 derivations
   and the round lemmas are one-sided), so the assertion is [>=], not
   equality — e.g. the one-round dyn complex at n = 2 is 1-connected
   while its derived bound is 0. *)
let check_against_symbolic spec (r : result) =
  match symbolic_of_spec spec with
  | None -> r
  | Some s ->
      if r.answer.connectivity < s.Solver.connectivity then
        failwith
          (Printf.sprintf
             "solver check failed: numeric connectivity %d violates symbolic \
              lower bound %d (%s)"
             r.answer.connectivity s.Solver.connectivity s.Solver.rule)
      else
        { r with solver = { r.solver with checked = Some s.Solver.connectivity } }

(* ------------------------------------------------------------------ *)
(* entry points                                                        *)
(* ------------------------------------------------------------------ *)

let with_query_span f =
  Obs.with_span "engine.query" (fun sp ->
      Obs.incr queries_c;
      let r = f () in
      (* attrs only reach a live sink; skip the hex rendering otherwise —
         cache hits are cheap enough for this to show up *)
      if Obs.current_sink () <> Obs.Null then begin
        Obs.set_attr sp "key" (Jsonl.Str (Key.to_hex r.key));
        Obs.set_attr sp "cached" (Jsonl.Bool r.cached)
      end;
      r)

let eval ?(mode = Auto) t spec =
  with_query_span (fun () ->
      match mode with
      | Auto | Numeric_only -> eval_numeric t spec
      | Check -> check_against_symbolic spec (eval_numeric t spec)
      | Symbolic_only ->
          invalid_arg
            "Engine: Betti numbers require the numeric tier; --solver \
             symbolic answers connectivity queries only")

let eval_conn ?(mode = Auto) t spec =
  with_query_span (fun () ->
      match mode with
      | Numeric_only -> eval_numeric t spec
      | Check -> check_against_symbolic spec (eval_numeric t spec)
      | Symbolic_only -> (
          match symbolic_of_spec spec with
          | Some s -> symbolic_result spec s
          | None ->
              failwith
                "no symbolic derivation applies to this query (try --solver \
                 auto)")
      | Auto -> (
          (* a warm numeric slot is exact and free; prefer it, then the
             O(formula) symbolic tier, then numeric elimination *)
          match cache_probe t spec with
          | Some r -> r
          | None -> (
              match symbolic_of_spec spec with
              | Some s -> symbolic_result spec s
              | None -> eval_numeric t spec)))

let dispatch t f = Pool.dispatch t.pool f

let stats t =
  Mutex.lock t.lock;
  let cache_len = Lru.length t.cache in
  Mutex.unlock t.lock;
  {
    hits = Lru.hits t.cache;
    misses = Lru.misses t.cache;
    evictions = Lru.evictions t.cache;
    cache_len;
    jobs = Pool.jobs_run t.pool;
    queries = Obs.counter_value queries_c;
    domains = Pool.size t.pool;
    build_s = (Obs.histogram_stats build_h).Obs.sum;
    compute_s = (Obs.histogram_stats compute_h).Obs.sum;
  }

let flush t = Option.iter (fun path -> Store.save path (snapshot t)) t.persist

let shutdown t =
  flush t;
  Pool.shutdown t.pool
