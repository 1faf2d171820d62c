(* Command-line plumbing shared by emask, table1 and table2: the
   exception boundary, cmdliner arguments built from the job-parameter
   table ({!Serve_opts}), and the --jobs, budget, --stats-json and
   --trace terms. *)

open Cmdliner

(* The CLI exception boundary: bad input must produce a one-line
   diagnostic and exit 2 — the lint preflight policy — never a raw
   OCaml backtrace. *)
let cli_error prog code msg =
  Printf.eprintf "%s: error %s: %s\n%!" prog code msg;
  exit 2

let guarded prog f =
  try f () with
  | Analysis.Lint.Gate_failed msg ->
    (* The preflight gate's one-line summary carries no error code. *)
    Printf.eprintf "%s: %s\n%!" prog msg;
    exit 2
  | e -> (
    match Serve_jobs.error_code e with
    | Some (code, msg) -> cli_error prog code msg
    | None -> raise e)

(* Evaluate [cmd] inside the boundary. Terms resolve EMASK_JOBS and
   EMASK_BUDGET_* and read CIRCUIT and --edits files while cmdliner
   evaluates them, so the boundary wraps the evaluation, not only the
   command bodies. *)
let main cmd = exit (guarded (Cmd.name cmd) (fun () -> Cmd.eval ~catch:false cmd))

(* --- arguments from the table ------------------------------------------- *)

let conv_of (e : _ Serve_opts.t) =
  Arg.conv ~docv:e.docv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (Serve_opts.parse e s)),
      fun ppf v -> Format.pp_print_string ppf (e.to_string v) )

let info_of (e : _ Serve_opts.t) = Arg.info e.flags ~docv:e.docv ~doc:e.doc

(* The parameter under its table default. *)
let arg (e : _ Serve_opts.t) =
  Arg.(value & opt (conv_of e) (Option.get e.default) & info_of e)

(* The parameter, [None] when the flag is absent. *)
let opt_arg e = Arg.(value & opt (some (conv_of e)) None & info_of e)

(* A command-line-only count, under the domain and message of the
   table's positive integers. *)
let count ~flags ~docv ~doc default =
  arg { Serve_opts.max_paths with flags; docv; doc; default = Some default }

(* --- shared terms --------------------------------------------------------- *)

(* Absent --jobs means EMASK_JOBS, else the recommended domain count
   capped at 8 — not the daemon's per-request default of 1. *)
let jobs =
  Term.(
    const (function Some n -> n | None -> Spcf.Parallel.auto_jobs ())
    $ opt_arg Serve_opts.jobs)

(* Flags take precedence; EMASK_BUDGET_* fills the gaps. [timeout] is
   open so fuzz can fold its deprecated --time-budget alias in. *)
let budget_with timeout =
  Term.(
    const (fun timeout max_nodes ->
        Budget.merge
          { Budget.timeout; max_nodes; max_ops = None; cancel_with = None }
          (Budget.of_env ()))
    $ timeout
    $ opt_arg Serve_opts.max_nodes)

let budget = budget_with (opt_arg Serve_opts.timeout)

let stats_json =
  let doc = "Write the instrumentation report as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE" ~doc)

let trace =
  let doc =
    "Write a Chrome/Perfetto trace-event timeline to $(docv) (load it at \
     ui.perfetto.dev or chrome://tracing): one row per domain, spans as complete \
     events, budget walls and synthesis-ladder fallbacks as instant markers. Implies \
     statistics collection."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
