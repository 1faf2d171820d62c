(* Wire protocol for [emask serve]: one request, one response, one
   connection.

   A frame is a 4-byte big-endian length prefix followed by that many
   bytes of JSON. The length cap is a denial-of-service guard, not a
   real circuit-size limit (a 64 MiB BLIF is well past what the
   analyses handle interactively anyway).

   Requests:
     {"job": "lint"|"spcf"|"paths"|"protect"|"eco"|"ping"|"metrics"
             |"shutdown",
      "circuit": NAME, "source": BLIF-TEXT?, ...job parameters...}

   Responses:
     {"status": "ok", "exit": N, "output": S}
     {"status": "rejected"|"error", "code": C, "message": M}

   The parameter vocabulary mirrors the CLI flags (json, contract,
   edits, check, prune_false_paths, plus the {!Serve_opts} table:
   theta, band, max_paths, jobs, fail_on, algorithm, timeout,
   max_nodes). Table parameters are decoded through the same entries
   the cmdliner arguments are built from, so a request no CLI
   invocation could express is rejected, not silently interpreted. *)

exception Protocol_error of string

let max_frame = 64 * 1024 * 1024

(* --- framing ------------------------------------------------------------- *)

let really_read fd buf off len =
  let got = ref 0 in
  while !got < len do
    match Unix.read fd buf (off + !got) (len - !got) with
    | 0 -> raise (Protocol_error "connection closed mid-frame")
    | n -> got := !got + n
  done

let really_write fd buf off len =
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Unix.write fd buf (off + !sent) (len - !sent)
  done

let read_frame fd =
  let hdr = Bytes.create 4 in
  (match Unix.read fd hdr 0 4 with
  | 0 -> raise (Protocol_error "connection closed before frame")
  | n -> if n < 4 then really_read fd hdr n (4 - n));
  let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
  if len < 0 || len > max_frame then
    raise (Protocol_error (Printf.sprintf "frame length %d out of range" len));
  let body = Bytes.create len in
  really_read fd body 0 len;
  Bytes.unsafe_to_string body

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame then
    raise (Protocol_error (Printf.sprintf "frame length %d out of range" len));
  let msg = Bytes.create (4 + len) in
  Bytes.set_int32_be msg 0 (Int32.of_int len);
  Bytes.blit_string payload 0 msg 4 len;
  really_write fd msg 0 (4 + len)

(* --- requests ------------------------------------------------------------ *)

type request =
  | Lint of Serve_jobs.circuit * Serve_jobs.lint_req
  | Spcf of Serve_jobs.circuit * Serve_jobs.spcf_req * Budget.spec
  | Paths of Serve_jobs.circuit * Serve_jobs.paths_req * Budget.spec
  | Protect of Serve_jobs.circuit * Serve_jobs.protect_req * Budget.spec
  | Eco of Serve_jobs.circuit * Serve_jobs.eco_req * Budget.spec
  | Ping of float  (** hold a worker for [delay] seconds, polling its budget *)
  | Metrics
  | Shutdown

let bad fmt = Printf.ksprintf (fun m -> raise (Protocol_error m)) fmt

let obj_string key j =
  match Obs_json.member key j with
  | Some (Obs_json.String s) -> Some s
  | Some _ -> bad "%S must be a string" key
  | None -> None

let obj_bool key j =
  match Obs_json.member key j with
  | Some (Obs_json.Bool b) -> b
  | Some _ -> bad "%S must be a boolean" key
  | None -> false

let obj_number key j =
  match Obs_json.member key j with
  | Some (Obs_json.Float f) -> Some f
  | Some (Obs_json.Int i) -> Some (float_of_int i)
  | Some _ -> bad "%S must be a number" key
  | None -> None

(* A parameter from the shared table ({!Serve_opts}): the CLI flag's
   domain and message shape, under its JSON key. Absent is [None]. *)
let find (e : _ Serve_opts.t) j =
  match Obs_json.member e.key j with
  | None -> None
  | Some v -> (
    match Serve_opts.decode e v with Ok x -> Some x | Error m -> raise (Protocol_error m))

(* ... falling back to the table default. *)
let get (e : _ Serve_opts.t) j =
  match find e j with Some v -> v | None -> Option.get e.default

let circuit_of j =
  match obj_string "circuit" j with
  | None -> bad "missing \"circuit\""
  | Some spec -> { Serve_jobs.spec; source = obj_string "source" j }

let budget_of j =
  {
    Budget.timeout = find Serve_opts.timeout j;
    max_nodes = find Serve_opts.max_nodes j;
    max_ops = None;
    cancel_with = None;
  }

let request_of_json j =
  match obj_string "job" j with
  | None -> bad "missing \"job\""
  | Some "lint" ->
    Lint
      ( circuit_of j,
        {
          Serve_jobs.l_fail_on = get Serve_opts.fail_on j;
          l_json = obj_bool "json" j;
          l_contract = obj_bool "contract" j;
          l_theta = get Serve_opts.theta j;
          l_jobs = get Serve_opts.jobs j;
        } )
  | Some "spcf" ->
    Spcf
      ( circuit_of j,
        {
          Serve_jobs.s_theta = get Serve_opts.theta j;
          s_algorithm = get Serve_opts.algorithm j;
          s_jobs = get Serve_opts.jobs j;
        },
        budget_of j )
  | Some "paths" ->
    Paths
      ( circuit_of j,
        {
          Serve_jobs.p_band = get Serve_opts.band j;
          p_max_paths = get Serve_opts.max_paths j;
          p_jobs = get Serve_opts.jobs j;
          p_json = obj_bool "json" j;
          p_fail_on = get Serve_opts.fail_on j;
        },
        budget_of j )
  | Some "protect" ->
    Protect
      ( circuit_of j,
        {
          Serve_jobs.m_theta = get Serve_opts.theta j;
          m_jobs = get Serve_opts.jobs j;
          m_prune = obj_bool "prune_false_paths" j;
        },
        budget_of j )
  | Some "eco" ->
    let edits =
      match obj_string "edits" j with
      | Some e -> e
      | None -> bad "missing \"edits\""
    in
    Eco
      ( circuit_of j,
        {
          Serve_jobs.c_edits_name =
            Option.value ~default:"<request>" (obj_string "edits_name" j);
          c_edits = edits;
          c_theta = get Serve_opts.theta j;
          c_band = find Serve_opts.band j;
          c_jobs = get Serve_opts.jobs j;
          c_json = obj_bool "json" j;
          c_check = obj_bool "check" j;
        },
        budget_of j )
  | Some "ping" ->
    Ping (match obj_number "delay" j with None -> 0. | Some d -> Float.max 0. d)
  | Some "metrics" -> Metrics
  | Some "shutdown" -> Shutdown
  | Some job -> bad "unknown job %S" job

let parse_request payload =
  match Obs_json.of_string payload with
  | Error e -> bad "request is not JSON: %s" e
  | Ok j -> request_of_json j

let json_of_circuit (c : Serve_jobs.circuit) =
  ("circuit", Obs_json.String c.Serve_jobs.spec)
  ::
  (match c.Serve_jobs.source with
  | Some s -> [ ("source", Obs_json.String s) ]
  | None -> [])

let field (e : _ Serve_opts.t) v = (e.key, e.to_json v)
let field_opt e = function Some v -> [ field e v ] | None -> []

let json_of_budget (b : Budget.spec) =
  field_opt Serve_opts.timeout b.timeout @ field_opt Serve_opts.max_nodes b.max_nodes

let json_of_request r =
  let open Obs_json in
  let fields =
    match r with
    | Lint (c, l) ->
      (("job", String "lint") :: json_of_circuit c)
      @ [
          field Serve_opts.fail_on l.l_fail_on;
          ("json", Bool l.l_json);
          ("contract", Bool l.l_contract);
          field Serve_opts.theta l.l_theta;
          field Serve_opts.jobs l.l_jobs;
        ]
    | Spcf (c, s, b) ->
      (("job", String "spcf") :: json_of_circuit c)
      @ [
          field Serve_opts.theta s.s_theta;
          field Serve_opts.algorithm s.s_algorithm;
          field Serve_opts.jobs s.s_jobs;
        ]
      @ json_of_budget b
    | Paths (c, p, b) ->
      (("job", String "paths") :: json_of_circuit c)
      @ [
          field Serve_opts.band p.p_band;
          field Serve_opts.max_paths p.p_max_paths;
          field Serve_opts.jobs p.p_jobs;
          ("json", Bool p.p_json);
          field Serve_opts.fail_on p.p_fail_on;
        ]
      @ json_of_budget b
    | Protect (c, m, b) ->
      (("job", String "protect") :: json_of_circuit c)
      @ [
          field Serve_opts.theta m.m_theta;
          field Serve_opts.jobs m.m_jobs;
          ("prune_false_paths", Bool m.m_prune);
        ]
      @ json_of_budget b
    | Eco (c, e, b) ->
      (("job", String "eco") :: json_of_circuit c)
      @ [
          ("edits", String e.c_edits);
          ("edits_name", String e.c_edits_name);
          field Serve_opts.theta e.c_theta;
        ]
      @ field_opt Serve_opts.band e.c_band
      @ [
          field Serve_opts.jobs e.c_jobs;
          ("json", Bool e.c_json);
          ("check", Bool e.c_check);
        ]
      @ json_of_budget b
    | Ping d -> [ ("job", String "ping"); ("delay", Float d) ]
    | Metrics -> [ ("job", String "metrics") ]
    | Shutdown -> [ ("job", String "shutdown") ]
  in
  Obj fields

(* --- responses ----------------------------------------------------------- *)

type response =
  | Ok_output of int * string  (** exit code, rendered output *)
  | Rejected of string * string  (** code, message — admission refusals *)
  | Error_resp of string * string  (** code, message — job failures *)

let json_of_response =
  let open Obs_json in
  function
  | Ok_output (exit, output) ->
    Obj [ ("status", String "ok"); ("exit", Int exit); ("output", String output) ]
  | Rejected (code, message) ->
    Obj
      [
        ("status", String "rejected");
        ("code", String code);
        ("message", String message);
      ]
  | Error_resp (code, message) ->
    Obj
      [ ("status", String "error"); ("code", String code); ("message", String message) ]

let response_of_json j =
  match obj_string "status" j with
  | Some "ok" -> (
    match (Obs_json.member "exit" j, obj_string "output" j) with
    | Some (Obs_json.Int e), Some out -> Ok_output (e, out)
    | _ -> bad "malformed ok response")
  | Some (("rejected" | "error") as st) -> (
    match (obj_string "code" j, obj_string "message" j) with
    | Some c, Some m -> if st = "rejected" then Rejected (c, m) else Error_resp (c, m)
    | _ -> bad "malformed %s response" st)
  | _ -> bad "malformed response"

let parse_response payload =
  match Obs_json.of_string payload with
  | Error e -> bad "response is not JSON: %s" e
  | Ok j -> response_of_json j

let send fd v = write_frame fd (Obs_json.to_string v)
let send_response fd r = send fd (json_of_response r)
let send_request fd r = send fd (json_of_request r)
let recv_response fd = parse_response (read_frame fd)
