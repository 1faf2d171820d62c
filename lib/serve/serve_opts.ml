(* The job-parameter table shared by the CLI, the client and the
   daemon's request codec. Entries are plain records; the three value
   shapes below (a float range, a positive integer, an enumeration)
   fill in the parsers. *)

type 'a t = {
  key : string;
  flags : string list;
  docv : string;
  doc : string;
  default : 'a option;
  domain : string;
  of_string : string -> 'a option;
  of_json : Obs_json.t -> 'a option;
  to_json : 'a -> Obs_json.t;
  to_string : 'a -> string;
}

let float_of_json = function
  | Obs_json.Float v -> Some v
  | Obs_json.Int n -> Some (float_of_int n)
  | _ -> None

let float_entry ~key ~flags ~docv ~doc ?default ~domain ok =
  let valid v = if ok v then Some v else None in
  {
    key;
    flags;
    docv;
    doc;
    default;
    domain;
    of_string = (fun s -> Option.bind (float_of_string_opt s) valid);
    of_json = (fun j -> Option.bind (float_of_json j) valid);
    to_json = (fun v -> Obs_json.Float v);
    to_string = Printf.sprintf "%g";
  }

let pos_int_entry ~key ~flags ~docv ~doc ?default () =
  let valid n = if n >= 1 then Some n else None in
  {
    key;
    flags;
    docv;
    doc;
    default;
    domain = "must be a positive integer";
    of_string = (fun s -> Option.bind (int_of_string_opt s) valid);
    of_json = (function Obs_json.Int n -> valid n | _ -> None);
    to_json = (fun n -> Obs_json.Int n);
    to_string = string_of_int;
  }

let enum_entry ~key ~flags ~docv ~doc ~default ~domain cases =
  let name v = fst (List.find (fun (_, v') -> v' = v) cases) in
  {
    key;
    flags;
    docv;
    doc;
    default = Some default;
    domain;
    of_string = (fun s -> List.assoc_opt s cases);
    of_json = (function Obs_json.String s -> List.assoc_opt s cases | _ -> None);
    to_json = (fun v -> Obs_json.String (name v));
    to_string = name;
  }

let unit_interval v = v > 0. && v <= 1.

let theta =
  float_entry ~key:"theta" ~flags:[ "theta" ] ~docv:"THETA"
    ~doc:
      "Target arrival factor: speed-paths within (1-THETA) of the critical path delay."
    ~default:Masking.Synthesis.default_options.theta ~domain:"must lie in (0, 1]"
    unit_interval

let band =
  float_entry ~key:"band" ~flags:[ "band" ] ~docv:"BAND"
    ~doc:
      "Near-critical band: classify every structural path longer than (1-BAND) * Delta."
    ~default:Paths.default_band ~domain:"must lie in (0, 1]" unit_interval

let max_paths =
  pos_int_entry ~key:"max_paths" ~flags:[ "max-paths" ] ~docv:"N"
    ~doc:"Stop enumerating after $(docv) paths (the report is marked truncated)."
    ~default:Paths.default_max_paths ()

let jobs =
  pos_int_entry ~key:"jobs" ~flags:[ "jobs"; "j" ] ~docv:"N"
    ~doc:
      "Worker domains for the per-output SPCF fan-out (default: \\$(b,EMASK_JOBS), \
       else the recommended domain count, capped at 8). Results are identical for \
       every N; only runtime changes."
    ~default:1 ()

let fail_on =
  enum_entry ~key:"fail_on" ~flags:[ "fail-on" ] ~docv:"SEVERITY"
    ~doc:
      "Severity that makes the exit status nonzero: $(b,error) (default; exit 2) or \
       $(b,warning) (exit 1 on warnings, 2 on errors)."
    ~default:Analysis.Diag.Error ~domain:"must be error or warning"
    [ ("error", Analysis.Diag.Error); ("warning", Analysis.Diag.Warning) ]

let algorithm =
  enum_entry ~key:"algorithm" ~flags:[ "algorithm"; "a" ] ~docv:"ALGO"
    ~doc:
      "SPCF algorithm: short (proposed, exact), path (exact), node (over-approximate)."
    ~default:Spcf.Governed.Short_path ~domain:"must be short, path or node"
    [
      ("short", Spcf.Governed.Short_path);
      ("path", Spcf.Governed.Path_based);
      ("node", Spcf.Governed.Node_based);
    ]

let timeout =
  float_entry ~key:"timeout" ~flags:[ "timeout" ] ~docv:"SEC"
    ~doc:
      "Wall-clock budget in seconds (also \\$(b,EMASK_BUDGET_TIMEOUT)). On exhaustion \
       the computation degrades tier by tier (exact SPCF, node-based SPCF, always-on \
       masking) instead of running away; degradation is reported, never silent."
    ~domain:"must be a positive number"
    (fun v -> v > 0. && v < infinity)

let max_nodes =
  pos_int_entry ~key:"max_nodes" ~flags:[ "max-nodes" ] ~docv:"N"
    ~doc:
      "BDD node quota per manager (also \\$(b,EMASK_BUDGET_MAX_NODES)). Same \
       degradation ladder as $(b,--timeout)."
    ()

let parse e s =
  match e.of_string s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s %s, got %S" e.docv e.domain s)

let decode e j =
  match e.of_json j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%S %s, got %s" e.key e.domain (Obs_json.to_string j))
