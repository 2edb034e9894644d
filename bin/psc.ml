(* psc — the pseudosphere calculator.

   A command-line front end for the library: build pseudospheres and
   protocol complexes, measure their topology, search for decision maps,
   print Mayer-Vietoris derivations, evaluate the paper's bounds, and
   export 1-skeletons to Graphviz. *)

open Psph_topology
open Psph_model
open Pseudosphere
open Psph_agreement
open Cmdliner

(* ------------------------------------------------------------------ *)
(* shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

let inputs = Solver.standard_inputs

let input_simplex = Solver.standard_input

let describe ?(show_facets = false) ?(integral = false) ?dot ?svg ?save name c =
  Format.printf "%s: %a@." name Complex.pp_summary c;
  let b = Homology.betti c in
  Format.printf "betti: (%s)@."
    (String.concat "," (List.map string_of_int (Array.to_list b)));
  Format.printf "connectivity: %d@." (Homology.connectivity c);
  if integral then
    Format.printf "integral homology: %s@."
      (String.concat ", "
         (Array.to_list (Array.map Homology_z.group_to_string (Homology_z.homology c))));
  if show_facets then
    List.iter (fun s -> Format.printf "  %a@." Simplex.pp s) (Complex.facets c);
  Option.iter
    (fun path ->
      Render.save_svg path c;
      Format.printf "wrote SVG to %s@." path)
    svg;
  Option.iter
    (fun path ->
      Complex_io.save path c;
      Format.printf "saved complex to %s@." path)
    save;
  Option.iter
    (fun path ->
      Render.save_dot path c;
      Format.printf "wrote 1-skeleton to %s@." path)
    dot

(* ------------------------------------------------------------------ *)
(* flags                                                               *)
(* ------------------------------------------------------------------ *)

(* every subcommand takes --trace FILE: the run executes with a JSONL
   channel sink installed, so spans and events from every layer (serve,
   engine, pool, homology, models, sim) land in one file *)
let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a JSON-lines span/event trace of this run to $(docv) (see \
           docs/OBSERVABILITY.md).")

let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path -> Psph_obs.Obs.with_trace_file path f

(* a subcommand that reports an exit code: run it under --trace, then
   exit with that code *)
let exit_traced trace f =
  let code = with_trace trace f in
  if code <> 0 then exit code

(* refuse a command's parameters as a usage error (exit 2) naming the
   first rule they break; [rules] pairs each check with the rule's text *)
let require cmd rules =
  match List.find_opt (fun (ok, _) -> not ok) rules with
  | Some (_, rule) ->
      Format.eprintf "psc: %s needs %s@." cmd rule;
      exit 2
  | None -> ()

let n_arg =
  Arg.(value & opt int 2 & info [ "n" ] ~docv:"N" ~doc:"Dimension: $(docv)+1 processes.")

let f_arg = Arg.(value & opt int 1 & info [ "f" ] ~docv:"F" ~doc:"Failure budget.")

let k_arg =
  Arg.(value & opt int 1 & info [ "k" ] ~docv:"K" ~doc:"Failures per round (sync/semi).")

let r_arg = Arg.(value & opt int 1 & info [ "r" ] ~docv:"R" ~doc:"Number of rounds.")

let p_arg =
  Arg.(value & opt int 2 & info [ "p" ] ~docv:"P" ~doc:"Microrounds per round (semi).")

let task_k_arg =
  Arg.(value & opt int 1 & info [ "task-k" ] ~docv:"K" ~doc:"k of the k-set agreement task.")

let values_arg =
  Arg.(value & opt int 2 & info [ "values" ] ~docv:"V" ~doc:"Size of the input domain.")

let facets_arg = Arg.(value & flag & info [ "facets" ] ~doc:"Print all facets.")

let dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE" ~doc:"Export the 1-skeleton as Graphviz.")

let over_inputs_arg =
  Arg.(
    value & flag
    & info [ "over-inputs" ]
        ~doc:"Build over the whole input complex instead of a fixed input simplex.")

let integral_arg =
  Arg.(value & flag & info [ "integral" ] ~doc:"Also print integral homology (SNF).")

let svg_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "svg" ] ~docv:"FILE" ~doc:"Render the complex as SVG.")

let save_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save" ] ~docv:"FILE" ~doc:"Serialize the complex to a file.")

(* model-owned extension parameters (Byzantine budget, adversary class,
   ...) become real flags on the model's generated subcommand: one
   [--name VALUE] per declared parameter, parsed by the parameter's own
   parser so enum names ("--adv rooted") work as well as codes *)
let ext_term (module M : Model_complex.MODEL) =
  List.fold_left
    (fun acc ep ->
      let { Model_complex.ep_name; ep_doc; ep_default; ep_parse; ep_show } =
        ep
      in
      let arg =
        Arg.(
          value
          & opt (some string) None
          & info [ ep_name ]
              ~docv:(String.uppercase_ascii ep_name)
              ~doc:
                (Printf.sprintf "%s (default %s)." ep_doc (ep_show ep_default)))
      in
      Term.(
        const (fun entries v ->
            match v with
            | None -> entries
            | Some s -> (
                match ep_parse s with
                | Ok i -> entries @ [ (ep_name, i) ]
                | Error msg ->
                    Format.eprintf "psc: model %s: %s@." M.name msg;
                    Stdlib.exit 2))
        $ acc $ arg))
    (Term.const []) M.ext_params

(* the shared model-parameterized commands can't generate per-model flags
   (the model is itself a flag), so they take repeatable --ext NAME=VALUE
   pairs validated against the chosen model's declaration *)
let ext_kv_arg =
  Arg.(
    value & opt_all string []
    & info [ "ext" ] ~docv:"NAME=VALUE"
        ~doc:
          "A model-owned extension parameter (e.g. $(b,--ext t=2), $(b,--ext \
           adv=rooted)); repeatable.  Valid names depend on $(b,--model) — \
           see $(b,psc models).")

let parse_ext (module M : Model_complex.MODEL) kvs =
  List.map
    (fun kv ->
      match String.index_opt kv '=' with
      | None ->
          Format.eprintf "psc: --ext expects NAME=VALUE, got %S@." kv;
          exit 2
      | Some i -> (
          let name = String.sub kv 0 i in
          let v = String.sub kv (i + 1) (String.length kv - i - 1) in
          match
            List.find_opt
              (fun ep -> ep.Model_complex.ep_name = name)
              M.ext_params
          with
          | None ->
              Format.eprintf "psc: model %s has no extension parameter %S%s@."
                M.name name
                (match M.ext_params with
                | [] -> ""
                | ps ->
                    Printf.sprintf " (available: %s)"
                      (String.concat ", "
                         (List.map (fun ep -> ep.Model_complex.ep_name) ps)));
              exit 2
          | Some ep -> (
              match ep.ep_parse v with
              | Ok i -> (name, i)
              | Error msg ->
                  Format.eprintf "psc: model %s: %s@." M.name msg;
                  exit 2)))
    kvs

(* any registered model; cmdliner's enum errors with the available list *)
let model_arg =
  let alts =
    List.map (fun m -> (Model_complex.name_of m, m)) (Model_complex.all ())
  in
  Arg.(
    value
    & opt (enum alts) (Model_complex.get "sync")
    & info [ "model" ] ~docv:"MODEL"
        ~doc:
          (Printf.sprintf "One of %s."
             (String.concat ", " (Model_complex.names ()))))

(* ------------------------------------------------------------------ *)
(* commands                                                            *)
(* ------------------------------------------------------------------ *)

let pseudosphere_cmd =
  let run trace n values facets integral dot svg save =
    with_trace trace @@ fun () ->
    let ps =
      Psph.uniform ~base:(Simplex.proc_simplex n)
        (List.init values (fun i -> Label.Int i))
    in
    Format.printf "%a@." Psph.pp ps;
    Format.printf "facet count (closed form): %d@." (Psph.facet_count ps);
    describe ~show_facets:facets ~integral ?dot ?svg ?save "complex"
      (Psph.realize ~vertex:Psph.default_vertex ps)
  in
  Cmd.v
    (Cmd.info "pseudosphere" ~doc:"Build psi(P^n; {0..V-1}) (Definition 3).")
    Term.(
      const run $ trace_arg $ n_arg $ values_arg $ facets_arg $ integral_arg
      $ dot_arg $ svg_arg $ save_arg)

(* fail like a flag parse error: message plus the registered alternatives *)
let validated (module M : Model_complex.MODEL) spec =
  match M.validate spec with
  | Ok spec -> spec
  | Error msg ->
      Format.eprintf "psc: model %s: %s@." M.name msg;
      exit 2

let build_complex m spec ~values ~over =
  let spec = validated m spec in
  if over then
    Model_complex.over_inputs m spec
      (Input_complex.make ~n:spec.Model_complex.n
         ~values:(Value.domain (values - 1)))
  else Model_complex.rounds m spec (input_simplex spec.Model_complex.n)

(* one subcommand per registered model, generated from the registry *)
let model_cmd ((module M : Model_complex.MODEL) as m) =
  let run trace n f k p r ext values over facets integral dot svg save =
    with_trace trace @@ fun () ->
    let spec = validated m { Model_complex.n; f; k; p; r; ext } in
    let c = build_complex m spec ~values ~over in
    describe ~show_facets:facets ~integral ?dot ?svg ?save M.name c;
    match M.expected_connectivity spec ~m:n with
    | Some conn ->
        Format.printf "the paper claims connectivity >= %d@." conn
    | None -> ()
  in
  Cmd.v (Cmd.info M.name ~doc:M.doc)
    Term.(
      const run $ trace_arg $ n_arg $ f_arg $ k_arg $ p_arg $ r_arg
      $ ext_term m $ values_arg $ over_inputs_arg $ facets_arg $ integral_arg
      $ dot_arg $ svg_arg $ save_arg)

let models_cmd =
  let run trace list =
    with_trace trace @@ fun () ->
    if list then List.iter print_endline (Model_complex.names ())
    else
      List.iter
        (fun (module M : Model_complex.MODEL) ->
          Format.printf "%-8s %s@." M.name M.doc;
          List.iter
            (fun ep ->
              Format.printf "         --%s: %s (default %s)@."
                ep.Model_complex.ep_name ep.ep_doc (ep.ep_show ep.ep_default))
            M.ext_params)
        (Model_complex.all ())
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"Print bare names, one per line.")
  in
  Cmd.v
    (Cmd.info "models" ~doc:"List the registered message-passing models.")
    Term.(const run $ trace_arg $ list_arg)

let decide_cmd =
  let run trace model n f k p r ext task_k =
    with_trace trace @@ fun () ->
    require "decide" [ (task_k >= 1, "--task-k >= 1") ];
    let values = task_k + 1 in
    let spec =
      { Model_complex.n; f; k; p; r; ext = parse_ext model ext }
    in
    let c = build_complex model spec ~values ~over:true in
    Format.printf "complex: %a@." Complex.pp_summary c;
    match Decision.solve ~complex:c ~allowed:Task.allowed ~k:task_k () with
    | Decision.Solution _ -> Format.printf "a %d-set decision map EXISTS@." task_k
    | Decision.Impossible ->
        Format.printf "NO %d-set decision map exists (exhaustive search)@." task_k
    | Decision.Unknown -> Format.printf "search budget exhausted@."
  in
  Cmd.v
    (Cmd.info "decide"
       ~doc:"Search for a k-set agreement decision map on a protocol complex.")
    Term.(
      const run $ trace_arg $ model_arg $ n_arg $ f_arg $ k_arg $ p_arg $ r_arg
      $ ext_kv_arg $ task_k_arg)

let bound_cmd =
  let run trace n f k c1 c2 d =
    with_trace trace @@ fun () ->
    require "bound"
      [
        (k >= 1, "-k >= 1"); (f >= 0, "-f >= 0"); (n >= 0, "-n >= 0");
        (1 <= c1 && c1 <= c2, "1 <= --c1 <= --c2"); (d >= 1, "-d >= 1");
      ];
    Format.printf "Corollary 13 (async): %d-set agreement with f=%d is %s@." k f
      (if Lower_bound.corollary13_impossible ~f ~k then "impossible"
       else "not excluded");
    Format.printf "Theorem 18 (sync): %d rounds@."
      (Lower_bound.theorem18_rounds ~n ~f ~k);
    Format.printf "Corollary 22 (semi, wait-free): time %.2f@."
      (Lower_bound.corollary22_time ~f ~k ~c1 ~c2 ~d)
  in
  let c1_arg = Arg.(value & opt int 1 & info [ "c1" ] ~doc:"Min step interval.") in
  let c2_arg = Arg.(value & opt int 2 & info [ "c2" ] ~doc:"Max step interval.") in
  let d_arg = Arg.(value & opt int 10 & info [ "d" ] ~doc:"Max message delay.") in
  Cmd.v
    (Cmd.info "bound" ~doc:"Evaluate the paper's closed-form lower bounds.")
    Term.(const run $ trace_arg $ n_arg $ f_arg $ k_arg $ c1_arg $ c2_arg $ d_arg)

let mv_cmd =
  let run trace ((module M : Model_complex.MODEL) as model) n f k p ext =
    with_trace trace @@ fun () ->
    let spec =
      validated model
        { Model_complex.n; f; k; p; r = 1; ext = parse_ext model ext }
    in
    match M.pseudosphere_decomposition with
    | None ->
        Format.eprintf
          "psc: model %s is not a union of pseudospheres (no decomposition)@."
          M.name;
        exit 2
    | Some pieces ->
        let pss = List.of_seq (pieces spec (input_simplex n)) in
        let proof = Mayer_vietoris.union_connectivity pss in
        Format.printf "%a@.@." Mayer_vietoris.pp proof;
        Format.printf "derived connectivity >= %d (%d inference steps)@."
          (Mayer_vietoris.conn proof) (Mayer_vietoris.size proof);
        Format.printf "numeric validation: %b@." (Mayer_vietoris.validate pss proof)
  in
  Cmd.v
    (Cmd.info "mv"
       ~doc:"Print a Mayer-Vietoris connectivity derivation (Theorem 2).")
    Term.(
      const run $ trace_arg $ model_arg $ n_arg $ f_arg $ k_arg $ p_arg
      $ ext_kv_arg)

let solver_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("auto", Psph_engine.Engine.Auto);
             ("symbolic", Psph_engine.Engine.Symbolic_only);
             ("numeric", Psph_engine.Engine.Numeric_only);
             ("check", Psph_engine.Engine.Check) ])
        Psph_engine.Engine.Auto
    & info [ "solver" ] ~docv:"TIER"
        ~doc:
          "Solver policy: $(b,auto) (warm cache, then symbolic, then \
           numeric), $(b,symbolic) (Theorem 2 + Corollary 6 or a round \
           lemma; fails when no derivation applies), $(b,numeric) \
           (Z/2 elimination over the built complex), or $(b,check) (compute \
           numerically and verify the symbolic lower bound holds; exits \
           nonzero on disagreement).")

let connectivity_cmd =
  let run trace psph ((module M : Model_complex.MODEL) as model) n f k p r ext
      values mode =
    with_trace trace @@ fun () ->
    let spec =
      if psph then Psph_engine.Engine.Psph { n; values }
      else begin
        let spec =
          validated model
            { Model_complex.n; f; k; p; r; ext = parse_ext model ext }
        in
        Psph_engine.Engine.Model { model = M.name; params = spec }
      end
    in
    let engine = Psph_engine.Engine.create ~domains:0 () in
    (match Psph_engine.Engine.eval_conn ~mode engine spec with
    | res ->
        Format.printf "connectivity: %d%s@." res.answer.connectivity
          (match res.solver.tier with
          | Psph_engine.Engine.Symbolic -> " (lower bound)"
          | Psph_engine.Engine.Cached | Psph_engine.Engine.Numeric -> "");
        Format.printf "tier: %s@."
          (match res.solver.tier with
          | Psph_engine.Engine.Cached -> "cached"
          | Psph_engine.Engine.Symbolic -> "symbolic"
          | Psph_engine.Engine.Numeric -> "numeric");
        Option.iter (Format.printf "rule: %s@.") res.solver.rule;
        Option.iter (Format.printf "steps: %d@.") res.solver.steps;
        Option.iter
          (Format.printf "checked: numeric satisfies symbolic lower bound %d@.")
          res.solver.checked;
        Format.printf "key: %s@." (Psph_engine.Key.to_hex res.key)
    | exception (Failure m | Invalid_argument m) ->
        Psph_engine.Engine.shutdown engine;
        Format.eprintf "psc: connectivity: %s@." m;
        exit 1);
    Psph_engine.Engine.shutdown engine
  in
  let psph_arg =
    Arg.(
      value & flag
      & info [ "psph" ]
          ~doc:
            "Query the uniform pseudosphere psi(P^n; {0..V-1}) instead of a \
             model's protocol complex.")
  in
  Cmd.v
    (Cmd.info "connectivity"
       ~doc:
         "Answer a connectivity query through the tiered solver (symbolic \
          Mayer-Vietoris / round lemmas, or numeric Z/2 elimination), \
          printing which tier answered and its provenance.")
    Term.(
      const run $ trace_arg $ psph_arg $ model_arg $ n_arg $ f_arg $ k_arg
      $ p_arg $ r_arg $ ext_kv_arg $ values_arg $ solver_arg)

let run_cmd =
  let run trace n f crash_round victim heard =
    with_trace trace @@ fun () ->
    let protocol = Protocols.flood_consensus ~f in
    let plan =
      if victim < 0 then [] else [ (crash_round, victim, Pid.Set.of_list heard) ]
    in
    let report =
      Runner.run_sync ~protocol ~inputs:(inputs n)
        ~schedule:(Runner.crash_schedule ~plan) ~max_rounds:(f + 3)
    in
    List.iter
      (fun (q, round, v) ->
        Format.printf "%a decides %d in round %d@." Pid.pp q v round)
      report.Runner.decisions
  in
  let crash_round_arg =
    Arg.(value & opt int 1 & info [ "crash-round" ] ~doc:"Round of the crash.")
  in
  let victim_arg =
    Arg.(value & opt int (-1) & info [ "victim" ] ~doc:"Pid to crash (-1: none).")
  in
  let heard_arg =
    Arg.(
      value & opt (list int) []
      & info [ "heard-by" ] ~doc:"Pids still receiving the final send.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run flooding consensus under a crash plan.")
    Term.(
      const run $ trace_arg $ n_arg $ f_arg $ crash_round_arg $ victim_arg
      $ heard_arg)

(* HOST:PORT addresses for the net subcommands *)
let addr_conv =
  let parse s =
    match Psph_net.Addr.parse s with
    | Ok a -> Ok a
    | Error m -> Error (`Msg m)
  in
  Arg.conv
    (parse, fun ppf a -> Format.pp_print_string ppf (Psph_net.Addr.to_string a))

(* stderr, so the stdout protocol stream stays parseable *)
let dump_metrics_stderr () =
  prerr_endline (Psph_obs.Jsonl.to_string (Psph_obs.Obs.snapshot_json ()))

(* the TCP front of serve and route, once [listening] is the result of
   binding [addr]: stop gracefully on SIGINT/SIGTERM (drain, then exit
   with the conventional 128+signal code), print the readiness line on
   stderr (CI waits for it; stdout stays protocol-clean in both
   transports), serve until drained, then [cleanup] *)
let serve_tcp name ?(note = "") addr listening ~cleanup =
  match listening with
  | Error m ->
      Format.eprintf "psc: %s: %s@." name m;
      exit 1
  | Ok server ->
      let code = ref 0 in
      let graceful signum exit_code =
        Sys.set_signal signum
          (Sys.Signal_handle
             (fun _ ->
               code := exit_code;
               Psph_net.Server.request_stop server))
      in
      graceful Sys.sigint 130;
      graceful Sys.sigterm 143;
      Format.eprintf "psc %s: listening on %s:%d%s@." name
        addr.Psph_net.Addr.host (Psph_net.Server.port server) note;
      Psph_net.Server.serve server;
      cleanup ();
      !code

(* flags several net subcommands share, each defined once *)
let listen_info doc = Arg.info [ "listen" ] ~docv:"HOST:PORT" ~doc

let max_conns_arg doc =
  Arg.(value & opt int 64 & info [ "max-conns" ] ~docv:"N" ~doc)

let replicas_arg default doc =
  Arg.(value & opt int default & info [ "replicas" ] ~docv:"R" ~doc)

let pipeline_depth_arg default doc =
  Arg.(value & opt int default & info [ "pipeline-depth" ] ~docv:"N" ~doc)

let serve_cmd =
  let run trace metrics listen max_conns deadline_ms domains cache_size
      persist =
    exit_traced trace @@ fun () ->
    (* on stdin/stdout nothing is dispatched, so no worker domains *)
    let domains = if listen = None then 0 else domains in
    let engine =
      Psph_engine.Engine.create ~domains ~capacity:cache_size ?persist ()
    in
    match listen with
    | None ->
        (* Ctrl-C must not lose unflushed store writes: flush and dump
           metrics before dying nonzero *)
        let bail exit_code =
          Sys.Signal_handle
            (fun _ ->
              (try Psph_engine.Engine.flush engine with _ -> ());
              if metrics then dump_metrics_stderr ();
              exit exit_code)
        in
        Sys.set_signal Sys.sigint (bail 130);
        Sys.set_signal Sys.sigterm (bail 143);
        Psph_engine.Serve.run engine stdin stdout;
        Psph_engine.Engine.shutdown engine;
        if metrics then dump_metrics_stderr ();
        0
    | Some addr ->
        let deadline_s =
          Option.map (fun ms -> float_of_int ms /. 1000.) deadline_ms
        in
        let handler = Psph_engine.Serve.handle_line engine in
        serve_tcp "serve" addr
          (Psph_net.Server.listen ~max_conns ?deadline_s
             ~bin_handler:(Psph_net.Codec.handle ~json:handler engine)
             ?dispatch:
               (if domains > 0 then Some (Psph_engine.Engine.dispatch engine)
                else None)
             ~handler addr)
          ~cleanup:(fun () ->
            Psph_engine.Engine.shutdown engine;
            if metrics then dump_metrics_stderr ())
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "On exit, print the full metrics snapshot (counters, gauges, \
             histograms, span totals) as one JSON object on stderr.")
  in
  let domains_arg =
    Arg.(
      value & opt int 2
      & info [ "domains" ] ~docv:"D"
          ~doc:
            "Worker domains that run TCP requests off the event loops \
             (0: requests run on the loops).  Each request is evaluated \
             whole on one domain.  Applies to $(b,--listen) only: on \
             stdin/stdout requests are evaluated in order in the main \
             thread and no worker domain is started.")
  in
  let cache_arg =
    Arg.(
      value & opt int 4096
      & info [ "cache-size" ] ~docv:"N" ~doc:"Memo store capacity (LRU entries).")
  in
  let persist_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "persist" ] ~docv:"FILE"
          ~doc:"Load the memo store from $(docv) on start and write it back on exit.")
  in
  let listen_arg =
    Arg.(
      value
      & opt (some addr_conv) None
      & listen_info
          "Serve the same protocol over TCP (length-prefixed JSONL frames, \
           see docs/NET.md) instead of stdin/stdout.  Port 0 picks a free \
           port (announced on stderr).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-request deadline for TCP requests: a request whose handler \
             runs longer is answered with an error instead of its late result.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve topology queries over JSON lines on stdin/stdout — or over \
          TCP with $(b,--listen) (ops: betti, connectivity, psph, \
          model-complex, batch, models, stats, metrics, populate; \
          see docs/ENGINE.md and docs/NET.md).")
    Term.(
      const run $ trace_arg $ metrics_arg $ listen_arg
      $ max_conns_arg
          "Bound on concurrent TCP connections (excess waits in the backlog)."
      $ deadline_arg $ domains_arg $ cache_arg $ persist_arg)

let connect_arg =
  Arg.(
    required
    & opt (some addr_conv) None
    & info [ "connect" ] ~docv:"HOST:PORT" ~doc:"Server (or router) to talk to.")

let timeout_ms_arg =
  Arg.(
    value & opt int 5000
    & info [ "timeout-ms" ] ~docv:"MS" ~doc:"Per-attempt request timeout.")

let retries_arg =
  Arg.(
    value & opt int 3
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retries on retryable failures (refused connection, timeout, torn \
           frame), with exponential backoff and jitter.")

let query_cmd =
  let run trace connect timeout_ms retries pipeline_depth =
    exit_traced trace @@ fun () ->
    let client =
      Psph_net.Client.create ~timeout_ms ~retries
        ~pipeline_depth:(max 1 pipeline_depth) connect
    in
    let failures = ref 0 in
    let emit = function
      | Ok resp -> print_endline resp
      | Error e ->
          incr failures;
          print_endline
            (Psph_engine.Serve.error_line (Psph_net.Client.error_message e))
    in
    (* responses stay in input order either way; pipelining just reads
       stdin in chunks so up to pipeline-depth requests share the wire.
       The plain default keeps the line-at-a-time loop, so interactive
       sessions still see each answer before typing the next query *)
    let chunk = if pipeline_depth > 1 then 4 * pipeline_depth else 1 in
    let rec loop () =
      let rec take k acc =
        if k = 0 then List.rev acc
        else
          match input_line stdin with
          | exception End_of_file -> List.rev acc
          | line when String.trim line = "" -> take k acc
          | line -> take (k - 1) (line :: acc)
      in
      match take chunk [] with
      | [] -> ()
      | [ line ] ->
          emit (Psph_net.Client.request client line);
          flush stdout;
          loop ()
      | lines ->
          List.iter emit (Psph_net.Client.pipeline client lines);
          flush stdout;
          loop ()
    in
    loop ();
    Psph_net.Client.close client;
    if !failures > 0 then 1 else 0
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Send JSON-lines requests from stdin to a TCP $(b,psc serve \
          --listen) (or $(b,psc route)) endpoint, one response per line on \
          stdout, optionally pipelined over the compact binary codec \
          ($(b,--pipeline-depth)).  Exits nonzero if any \
          request failed at the transport layer (server-side \
          {\"ok\":false,...} responses pass through).")
    Term.(
      const run $ trace_arg $ connect_arg $ timeout_ms_arg $ retries_arg
      $ pipeline_depth_arg 1
          "Keep up to $(docv) requests in flight per connection (protocol \
           v2 pipelining over the binary codec; 1 = classic \
           request/response).")

let route_cmd =
  let run trace listen backends max_conns replicas timeout_ms retries
      check_period_ms =
    exit_traced trace @@ fun () ->
    match
      Psph_net.Router.create ~replication:replicas ~timeout_ms ~retries
        ~check_period_ms backends
    with
    | exception Invalid_argument m ->
        (* a repeated --backend *)
        Format.eprintf "psc: route: %s@." m;
        2
    | router ->
        Psph_net.Router.start_health_checks router;
        serve_tcp "route"
          ~note:(Printf.sprintf ", %d backends" (List.length backends))
          listen
          (Psph_net.Server.listen ~max_conns
             ~dispatch:(Psph_net.Server.threaded_dispatch ())
             ~handler:(Psph_net.Router.route router)
             listen)
          ~cleanup:(fun () -> Psph_net.Router.stop router)
  in
  let listen_arg =
    Arg.(
      required
      & opt (some addr_conv) None
      & listen_info "Address to accept clients on.")
  in
  let backend_arg =
    Arg.(
      non_empty
      & opt_all addr_conv []
      & info [ "backend" ] ~docv:"HOST:PORT"
          ~doc:
            "A backend $(b,psc serve --listen) endpoint; repeatable.  \
             Requests shard across backends by content key (docs/NET.md).")
  in
  let check_period_arg =
    Arg.(
      value & opt int 1000
      & info [ "check-period-ms" ] ~docv:"MS"
          ~doc:"Interval between backend health probes.")
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Shard serve-protocol requests across several $(b,psc serve \
          --listen) backends by consistent hashing on the query's content \
          key, with health checks, failover, and a degraded \
          {\"ok\":false,\"error\":\"no backend\"} answer when nothing is \
          reachable (see docs/NET.md).  With $(b,--replicas) R > 1 each \
          key's answers are replicated onto R backends and reads fail over \
          onto the warm replicas.  Each request, a batch included, is \
          forwarded whole to one backend over a binary-codec link.  \
          Clients may speak JSON lines or the binary codec.")
    Term.(
      const run $ trace_arg $ listen_arg $ backend_arg
      $ max_conns_arg "Bound on concurrent client connections."
      $ replicas_arg 1
          "Replication factor: each key's answers are kept warm on the \
           first $(docv) distinct backends of its ring walk (populate \
           hints push cache misses to the other owners asynchronously)."
      $ timeout_ms_arg $ retries_arg $ check_period_arg)

let sim_cmd =
  let run trace c1 c2 d n until slow_solo after_step validate =
    with_trace trace @@ fun () ->
    require "sim" [ (1 <= c1 && c1 <= c2, "1 <= --c1 <= --c2"); (d >= 1, "-d >= 1") ];
    let cfg = { Sim.c1; c2; d } in
    let adv =
      match slow_solo with
      | None -> Sim.lockstep cfg
      | Some survivor ->
          let after_step =
            match after_step with
            | Some s -> s
            | None -> Sim.microrounds cfg (* one full round, then alone *)
          in
          Sim.slow_solo cfg ~survivor ~after_step
    in
    let t = Sim.run cfg ~n adv ~until in
    Pid.Map.iter
      (fun q events ->
        let steps, recvs =
          List.fold_left
            (fun (s, r) -> function
              | Sim.Stepped _ -> (s + 1, r)
              | Sim.Received _ -> (s, r + 1))
            (0, 0) events
        in
        Format.printf "%a: %d steps, %d receives@." Pid.pp q steps recvs)
      t;
    if validate then
      match Trace_check.validate cfg t with
      | [] -> Format.printf "trace satisfies the timing model@."
      | violations ->
          List.iter
            (fun v -> Format.eprintf "violation: %a@." Trace_check.pp_violation v)
            violations;
          exit 1
  in
  let c1_arg = Arg.(value & opt int 1 & info [ "c1" ] ~doc:"Min step interval.") in
  let c2_arg = Arg.(value & opt int 2 & info [ "c2" ] ~doc:"Max step interval.") in
  let d_arg = Arg.(value & opt int 4 & info [ "d" ] ~doc:"Max message delay.") in
  let until_arg =
    Arg.(value & opt int 20 & info [ "until" ] ~docv:"T" ~doc:"Simulate through time $(docv).")
  in
  let slow_solo_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "slow-solo" ] ~docv:"PID"
          ~doc:
            "Use the slow-solo adversary: everyone else crashes after \
             $(b,--after-step) and $(docv) continues at the slowest legal pace.")
  in
  let after_step_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "after-step" ] ~docv:"S"
          ~doc:
            "Step after which the slow-solo crash happens (default: one full \
             round of microrounds).")
  in
  let validate_arg =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Re-check the produced trace against the timing-model axioms \
             (step intervals, delivery bound, FIFO, no spoofing); exit \
             non-zero and print each violation if any fail.")
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:
         "Run the semi-synchronous discrete-event simulator (Section 8) and \
          optionally validate the trace against the model's axioms.")
    Term.(
      const run $ trace_arg $ c1_arg $ c2_arg $ d_arg $ n_arg $ until_arg
      $ slow_solo_arg $ after_step_arg $ validate_arg)

(* ------------------------------------------------------------------ *)
(* load + chaos: the traffic/adversity harness (lib/load, docs/LOAD.md) *)
(* ------------------------------------------------------------------ *)

(* "LO:HI" millisecond spans for the chaos delay; a bare integer means
   a fixed delay, 0:0 means off *)
let span_conv =
  let parse s =
    let num x =
      match int_of_string_opt x with
      | Some v when v >= 0 -> Ok v
      | _ -> Error (`Msg "expected nonnegative integers LO:HI")
    in
    match String.index_opt s ':' with
    | None -> Result.map (fun v -> (v, v)) (num s)
    | Some i -> (
        match
          ( num (String.sub s 0 i),
            num (String.sub s (i + 1) (String.length s - i - 1)) )
        with
        | Ok lo, Ok hi when lo <= hi -> Ok (lo, hi)
        | Ok _, Ok _ -> Error (`Msg "expected LO <= HI")
        | (Error _ as e), _ | _, (Error _ as e) -> e)
  in
  Arg.conv (parse, fun ppf (lo, hi) -> Format.fprintf ppf "%d:%d" lo hi)

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Seed for every random choice (arrival times, key skew, chaos \
           schedule).  The same seed replays the same schedule.")

(* the five chaos fault flags, as one term for [Chaos.faults]: [psc
   chaos] names them bare, [psc load] with the [chaos-] prefix for its
   soak's chaos phase *)
let faults_arg ~prefix (delay, throttle, reset, torn, corrupt) =
  let soak = prefix <> "" in
  let fault_info name docv doc =
    Arg.info [ prefix ^ name ] ~docv
      ~doc:(if soak then "($(b,--soak)) " ^ doc else doc)
  in
  let chunks = if soak then "forwarded chunks" else "chunks" in
  let ppc name default doc =
    Arg.(value & opt int default & fault_info name "PPC" doc)
  in
  let faults (dlo, dhi) throttle reset torn corrupt =
    {
      Psph_load.Chaos.delay_ms = (if dhi = 0 then None else Some (dlo, dhi));
      throttle_bps = (if throttle > 0 then Some throttle else None);
      reset_ppc = reset;
      torn_ppc = torn;
      corrupt_ppc = corrupt;
    }
  in
  Term.(
    const faults
    $ Arg.(
        value & opt span_conv delay
        & fault_info "delay" "LO:HI"
            ("Added per-chunk latency range in ms"
            ^ (if soak then " during the chaos phase" else "")
            ^ "; 0:0 disables."))
    $ Arg.(
        value & opt int throttle
        & fault_info "throttle-bps" "BPS"
            "Bandwidth cap per direction; 0 disables.")
    $ ppc "reset-ppc" reset "Connection resets per thousand forwarded chunks."
    $ ppc "torn-ppc" torn
        (if soak then "Torn frames per thousand forwarded chunks."
         else "Torn frames (truncate then reset) per thousand chunks.")
    $ ppc "corrupt-ppc" corrupt
        ("Single-byte corruptions per thousand " ^ chunks ^ "."))

let load_cmd =
  let run trace connect soak out rate conns pipeline_depth duration
      keyspace zipf seed timeout_ms retries backends replicas warm_s slo_ms
      warm_floor no_kill faults =
    let lcfg =
      {
        Psph_load.Loadgen.rate;
        conns;
        pipeline_depth = max 1 pipeline_depth;
        duration_s = duration;
        keyspace;
        zipf;
        seed;
        timeout_ms;
        retries;
      }
    in
    (* --out: the run's JSON result, written tmp+rename *)
    let write_out json =
      Option.iter
        (fun path ->
          Psph_obs.Jsonl.write_atomic path (fun oc ->
              output_string oc (Psph_obs.Jsonl.to_string json);
              output_char oc '\n');
          Format.eprintf "psc load: wrote %s@." path)
        out
    in
    exit_traced trace @@ fun () ->
    if soak then begin
      let cfg =
        {
          Psph_load.Soak.backends;
          replicas;
          load = lcfg;
          faults;
          seed;
          warm_s;
          slo_p99_ms = slo_ms;
          warm_floor;
          kill_backend = not no_kill;
          converge_timeout_s = 20.;
          make_backend = (fun i -> Psph_load.Soak.spawn_backend i);
        }
      in
      match Psph_load.Soak.run cfg with
      | Error m ->
          Format.eprintf "psc load: soak: %s@." m;
          1
      | Ok r ->
          Psph_load.Soak.print_summary stdout r;
          flush stdout;
          write_out (Psph_load.Soak.to_json r);
          if Psph_load.Soak.passed r then 0 else 1
    end
    else
      match connect with
      | None ->
          Format.eprintf
            "psc load: --connect HOST:PORT required (or --soak)@.";
          1
      | Some addr ->
          let st = Psph_load.Loadgen.run lcfg addr in
          let completed = Psph_load.Loadgen.completed st in
          let p pct = 1000. *. Psph_load.Loadgen.percentile st.latencies pct in
          Printf.printf
            "load seed %d: %d sent, %d ok (%d cached), %d server-err, %d \
             timeout, %d conn, %d proto\n"
            seed st.sent st.ok st.cached
            (List.fold_left (fun a (_, n) -> a + n) 0 st.server_errors)
            st.timeouts st.conn_errors st.proto_errors;
          Printf.printf "  %.1f req/s, p50 %.2fms p99 %.2fms over %.1fs\n"
            (float_of_int completed /. st.wall_s)
            (p 50.) (p 99.) st.wall_s;
          write_out
            (Psph_obs.Jsonl.Obj
               [
                 ("seed", Psph_obs.Jsonl.int seed);
                 ("sent", Psph_obs.Jsonl.int st.sent);
                 ("ok", Psph_obs.Jsonl.int st.ok);
                 ("cached", Psph_obs.Jsonl.int st.cached);
                 ("rps", Psph_obs.Jsonl.Num (float_of_int completed /. st.wall_s));
                 ("p50_ms", Psph_obs.Jsonl.Num (p 50.));
                 ("p99_ms", Psph_obs.Jsonl.Num (p 99.));
               ]);
          if st.sent > 0 && completed = st.sent && st.unresolved = 0 then 0
          else 1
  in
  let connect_opt_arg =
    Arg.(
      value
      & opt (some addr_conv) None
      & info [ "connect" ] ~docv:"HOST:PORT"
          ~doc:"Server or router to drive (ignored with $(b,--soak)).")
  in
  let soak_arg =
    Arg.(
      value & flag
      & info [ "soak" ]
          ~doc:
            "Run the full invariant-checked soak: spawn backends, chaos \
             proxies, a replicated router and the generator, inject the \
             seeded fault timeline, and exit nonzero if any invariant \
             fails (see docs/LOAD.md).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write results as JSON (tmp+rename) to $(docv).")
  in
  let rate_arg =
    Arg.(
      value & opt float 500.
      & info [ "rate" ] ~docv:"R"
          ~doc:
            "Open-loop arrival rate, requests/second across all \
             connections.  The schedule never slows down for a struggling \
             server; latency is measured from intended arrival.")
  in
  let conns_arg =
    Arg.(
      value & opt int 4
      & info [ "conns" ] ~docv:"N" ~doc:"Generator connections (one thread each).")
  in
  let duration_arg =
    Arg.(
      value & opt float 10.
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Length of the run ($(b,--soak): of each measured phase).")
  in
  let keyspace_arg =
    Arg.(
      value & opt int 64
      & info [ "keyspace" ] ~docv:"K"
          ~doc:
            "Distinct keys in the query table (drawn from the model \
             registry's spec space).")
  in
  let zipf_arg =
    Arg.(
      value & opt float 1.0
      & info [ "zipf" ] ~docv:"S"
          ~doc:"Zipf skew exponent over the key table; 0 = uniform.")
  in
  let load_timeout_arg =
    Arg.(
      value & opt int 2000
      & info [ "timeout-ms" ] ~docv:"MS" ~doc:"Per-attempt request timeout.")
  in
  let load_retries_arg =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"N" ~doc:"Retries on retryable failures.")
  in
  let backends_arg =
    Arg.(
      value & opt int 2
      & info [ "backends" ] ~docv:"N"
          ~doc:"($(b,--soak)) Backend processes to spawn.")
  in
  let warm_arg =
    Arg.(
      value & opt float 3.
      & info [ "warm" ] ~docv:"SECONDS"
          ~doc:
            "($(b,--soak)) Warmup phase: uniform skew, fills every key and \
             lets populate hints replicate before measuring.")
  in
  let slo_arg =
    Arg.(
      value & opt float 250.
      & info [ "slo-ms" ] ~docv:"MS"
          ~doc:"($(b,--soak)) p99 SLO for the clean and recovery phases.")
  in
  let warm_floor_arg =
    Arg.(
      value & opt float 0.7
      & info [ "warm-floor" ] ~docv:"RATE"
          ~doc:
            "($(b,--soak)) Minimum recovery-phase cached-hit rate — the \
             replicas-stayed-warm invariant.")
  in
  let no_kill_arg =
    Arg.(
      value & flag
      & info [ "no-kill" ]
          ~doc:
            "($(b,--soak)) Skip the mid-chaos SIGKILL + restart of one \
             backend.")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Open-loop load generator for a serve/route endpoint — or, with \
          $(b,--soak), the full invariant-checked chaos soak: cluster + \
          chaos proxies + generator, exit nonzero on any violated \
          invariant.  See docs/LOAD.md.")
    Term.(
      const run $ trace_arg $ connect_opt_arg $ soak_arg $ out_arg $ rate_arg
      $ conns_arg
      $ pipeline_depth_arg 16 "In-flight requests per generator connection."
      $ duration_arg $ keyspace_arg $ zipf_arg $ seed_arg $ load_timeout_arg
      $ load_retries_arg $ backends_arg
      $ replicas_arg 2
          "($(b,--soak)) Replication factor of the router's memo tier."
      $ warm_arg $ slo_arg $ warm_floor_arg $ no_kill_arg
      $ faults_arg ~prefix:"chaos-" ((2, 20), 0, 20, 5, 0))

let chaos_cmd =
  let run trace listen upstream seed faults disabled partition_every
      partition_for =
    exit_traced trace @@ fun () ->
    match Psph_load.Chaos.create ~seed ~faults ~upstream listen with
    | Error m ->
        Format.eprintf "psc chaos: %s@." m;
        1
    | Ok proxy ->
        Psph_load.Chaos.set_enabled proxy (not disabled);
        Format.eprintf "psc chaos: %s -> %s, seed %d, faults %s@."
          (Psph_net.Addr.to_string (Psph_load.Chaos.addr proxy))
          (Psph_net.Addr.to_string upstream)
          seed
          (if disabled then "disabled" else "enabled");
        let stop = ref false in
        let on_sig _ = stop := true in
        Sys.set_signal Sys.sigint (Sys.Signal_handle on_sig);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle on_sig);
        let last_partition = ref (Psph_obs.Obs.monotonic ()) in
        while not !stop do
          Thread.delay 0.1;
          if
            partition_every > 0.
            && Psph_obs.Obs.monotonic () -. !last_partition
               >= partition_every
          then begin
            Format.eprintf "psc chaos: partition for %.1fs@." partition_for;
            Psph_load.Chaos.set_partition proxy Psph_load.Chaos.Full;
            Thread.delay partition_for;
            Psph_load.Chaos.set_partition proxy
              Psph_load.Chaos.No_partition;
            Format.eprintf "psc chaos: partition healed@.";
            last_partition := Psph_obs.Obs.monotonic ()
          end
        done;
        Psph_load.Chaos.stop proxy;
        dump_metrics_stderr ();
        0
  in
  let listen_arg =
    Arg.(required & opt (some addr_conv) None & listen_info "Address to listen on.")
  in
  let upstream_arg =
    Arg.(
      required
      & opt (some addr_conv) None
      & info [ "upstream" ] ~docv:"HOST:PORT"
          ~doc:"Real server the proxy forwards to.")
  in
  let disabled_arg =
    Arg.(
      value & flag
      & info [ "start-disabled" ]
          ~doc:"Start as a transparent relay (faults off).")
  in
  let partition_every_arg =
    Arg.(
      value & opt float 0.
      & info [ "partition-every" ] ~docv:"SECONDS"
          ~doc:"Open a full partition periodically; 0 = never.")
  in
  let partition_for_arg =
    Arg.(
      value & opt float 1.
      & info [ "partition-for" ] ~docv:"SECONDS"
          ~doc:"Length of each periodic partition.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a standalone fault-injecting TCP proxy in front of a serve or \
          route endpoint, with a seeded reproducible fault schedule.  \
          SIGINT/SIGTERM stops it and dumps chaos.* metrics to stderr.  See \
          docs/LOAD.md.")
    Term.(
      const run $ trace_arg $ listen_arg $ upstream_arg $ seed_arg
      $ faults_arg ~prefix:"" ((0, 0), 0, 0, 0, 0)
      $ disabled_arg $ partition_every_arg $ partition_for_arg)

let () =
  let doc = "pseudosphere calculator (Herlihy-Rajsbaum-Tuttle, PODC 1998)" in
  let info = Cmd.info "psc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          (List.map model_cmd (Model_complex.all ())
          @ [ pseudosphere_cmd; models_cmd; decide_cmd; bound_cmd; mv_cmd;
              connectivity_cmd; run_cmd; sim_cmd; serve_cmd; query_cmd;
              route_cmd; load_cmd; chaos_cmd ])))
