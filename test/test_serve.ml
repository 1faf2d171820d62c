(* End-to-end tests of the emask serve daemon: served responses are
   byte-identical to the one-shot CLI across worker counts, repeated
   circuits hit the LRU, saturation and budget exhaustion produce
   structured rejections, a client disconnect cancels the running job
   via its budget flag, hung clients are shed by the read timeout
   without taking the daemon down, and a disconnect while queued drops
   the job unrun. The client accepts exactly its job's one-shot flags,
   and a bare request decodes to the one-shot CLI's defaults. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let emask =
  match Sys.getenv_opt "EMASK" with
  | Some path -> path
  | None -> Filename.concat ".." (Filename.concat "bin" "emask.exe")

(* Run the binary, returning (exit code, stdout lines, stderr lines). *)
let run args =
  let out = Filename.temp_file "emask_out" ".txt" in
  let err = Filename.temp_file "emask_err" ".txt" in
  let cmd =
    Printf.sprintf "%s %s > %s 2> %s" (Filename.quote emask)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  let slurp f =
    let ic = open_in f in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file -> List.rev acc
    in
    let lines = go [] in
    close_in ic;
    Sys.remove f;
    lines
  in
  (code, slurp out, slurp err)

let contains text needle =
  let n = String.length needle and len = String.length text in
  let rec go i = i + n <= len && (String.sub text i n = needle || go (i + 1)) in
  go 0

let fixture name = Filename.concat "fixtures" name

(* Wall-clock noise is the one legitimate difference between two runs
   of the same job, so the spcf "runtime: x.xxxs" tail is masked
   before comparison (it differs between two one-shot runs too). *)
let normalize lines =
  List.map
    (fun line ->
      if contains line "  runtime: " then begin
        let rec find i =
          if String.sub line i 11 = "  runtime: " then i else find (i + 1)
        in
        String.sub line 0 (find 0) ^ "  runtime: <t>"
      end
      else line)
    lines

(* --- daemon lifecycle ----------------------------------------------------- *)

let fresh_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "emask-serve-test-%d-%d.sock" (Unix.getpid ()) !n)

(* Start a daemon on a fresh Unix socket, run [f sock], always shut
   the daemon down. *)
let with_server ?(args = []) f =
  let sock = fresh_sock () in
  if Sys.file_exists sock then Sys.remove sock;
  let dev_null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process emask
      (Array.of_list (([ emask; "serve"; "--socket"; sock ] @ args)))
      dev_null dev_null dev_null
  in
  Unix.close dev_null;
  (* Wait until the daemon accepts connections. *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait_ready () =
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "serve daemon did not come up";
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Unix.sleepf 0.05;
      wait_ready ()
  in
  wait_ready ();
  Fun.protect
    ~finally:(fun () ->
      let code, _, _ = run [ "client"; "shutdown"; "--socket"; sock ] in
      ignore code;
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      if Sys.file_exists sock then Sys.remove sock)
    (fun () -> f sock)

let scrape sock =
  let code, out, _ = run [ "client"; "metrics"; "--socket"; sock ] in
  check_int "metrics scrape exits 0" 0 code;
  String.concat "\n" out

let counter_value metrics name =
  let prefix = name ^ " " in
  List.fold_left
    (fun acc line ->
      if String.starts_with ~prefix line then
        int_of_string
          (String.trim
             (String.sub line (String.length prefix)
                (String.length line - String.length prefix)))
      else acc)
    (-1)
    (String.split_on_char '\n' metrics)

(* --- byte identity -------------------------------------------------------- *)

(* Every job kind, served vs one-shot, across worker counts: exit code
   and (runtime-normalized) stdout must agree byte for byte. The
   served run repeats each circuit, so later iterations are cache
   hits — identity must hold for those too. *)
let test_byte_identity () =
  let edits = Filename.temp_file "emask_edits" ".eco" in
  let oc = open_out edits in
  output_string oc "# no edits\n";
  close_out oc;
  let blif = fixture "allfalse.blif" in
  let cases =
    [
      [ "lint"; blif ];
      [ "lint"; "cmb" ];
      [ "spcf"; blif; "--theta"; "0.8" ];
      [ "spcf"; "cmb" ];
      [ "paths"; blif; "--band"; "0.2" ];
      [ "protect"; blif ];
      [ "eco"; blif; "--edits"; edits; "--check" ];
    ]
  in
  List.iter
    (fun jobs ->
      with_server ~args:[ "--jobs"; jobs ] (fun sock ->
          List.iter
            (fun case ->
              let name = String.concat " " case ^ " @jobs=" ^ jobs in
              let case = case @ [ "--jobs"; jobs ] in
              let ccode, cout, _ = run case in
              let scode, sout, serr =
                run ((("client" :: case) @ [ "--socket"; sock ]))
              in
              check
                (name ^ " no client stderr: " ^ String.concat "|" serr)
                true (serr = []);
              check_int (name ^ " exit code") ccode scode;
              check_string (name ^ " output")
                (String.concat "\n" (normalize cout))
                (String.concat "\n" (normalize sout)))
            cases))
    [ "1"; "2"; "4" ];
  Sys.remove edits

(* --- cache ---------------------------------------------------------------- *)

let test_cache_hits () =
  with_server ~args:[ "--jobs"; "2" ] (fun sock ->
      let before = scrape sock in
      check_int "no hits yet" 0 (counter_value before "emask_serve_cache_hits");
      let c1, _, _ = run [ "client"; "spcf"; "cmb"; "--socket"; sock ] in
      let c2, _, _ = run [ "client"; "spcf"; "cmb"; "--socket"; sock ] in
      let c3, _, _ = run [ "client"; "paths"; "cmb"; "--socket"; sock ] in
      check_int "spcf #1" 0 c1;
      check_int "spcf #2" 0 c2;
      check_int "paths" 0 c3;
      let m = scrape sock in
      let hits = counter_value m "emask_serve_cache_hits" in
      let misses = counter_value m "emask_serve_cache_misses" in
      check ("repeat circuit hits the LRU, hits=" ^ string_of_int hits) true
        (hits >= 2);
      check_int "one miss for one distinct circuit" 1 misses;
      (* Eco baseline snapshots are memoized per (circuit, theta, band). *)
      let edits = Filename.temp_file "emask_edits" ".eco" in
      let oc = open_out edits in
      output_string oc "# no edits\n";
      close_out oc;
      let e1, _, _ = run [ "client"; "eco"; "cmb"; "--edits"; edits; "--socket"; sock ] in
      let e2, _, _ = run [ "client"; "eco"; "cmb"; "--edits"; edits; "--socket"; sock ] in
      Sys.remove edits;
      check_int "eco #1" 0 e1;
      check_int "eco #2" 0 e2;
      let m = scrape sock in
      check "snapshot reused" true
        (counter_value m "emask_serve_cache_snap_hits" >= 1))

(* --- admission control ---------------------------------------------------- *)

let test_queue_full () =
  (* One worker, queue bound 1: a long ping occupies the worker, a
     second fills the queue, the third must be rejected immediately
     with the structured QUEUE001 diagnostic. *)
  with_server ~args:[ "--jobs"; "1"; "--queue"; "1" ] (fun sock ->
      let spawn_ping () =
        let dev_null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
        let pid =
          Unix.create_process emask
            [| emask; "client"; "ping"; "--delay"; "5"; "--socket"; sock |]
            dev_null dev_null dev_null
        in
        Unix.close dev_null;
        pid
      in
      let p1 = spawn_ping () in
      Unix.sleepf 0.5 (* worker picks up the first ping *);
      let p2 = spawn_ping () in
      Unix.sleepf 0.5 (* second ping parks in the queue *);
      let started = Unix.gettimeofday () in
      let code, _, err = run [ "client"; "ping"; "--socket"; sock ] in
      let elapsed = Unix.gettimeofday () -. started in
      check_int "saturated queue rejects" 2 code;
      check "rejection names QUEUE001" true
        (contains (String.concat "\n" err) "QUEUE001");
      check "rejection is immediate, not parked" true (elapsed < 2.);
      ignore (Unix.waitpid [] p1);
      ignore (Unix.waitpid [] p2))

let test_budget_exceeded () =
  (* A request-scoped budget that cannot cover the job must come back
     as a structured BUDGET001 error response, exit 2 — and must not
     poison the daemon for later well-budgeted requests. *)
  with_server ~args:[ "--jobs"; "1" ] (fun sock ->
      let code, _, err =
        run
          [
            "client"; "eco"; "cmb"; "--edits"; "/dev/null"; "--max-nodes"; "1";
            "--socket"; sock;
          ]
      in
      check_int "exhausted budget exits 2" 2 code;
      check "diagnostic names BUDGET001" true
        (contains (String.concat "\n" err) "BUDGET001");
      let m = scrape sock in
      check "exhaustion counted" true
        (counter_value m "emask_serve_budget_exhausted" >= 1);
      let code, _, _ = run [ "client"; "spcf"; "cmb"; "--socket"; sock ] in
      check_int "daemon still serves afterwards" 0 code)

(* --- disconnect cancellation ---------------------------------------------- *)

let test_disconnect_cancels () =
  (* Ship a long ping over a raw protocol connection and hang up
     immediately: the watcher must trip the job's budget flag, and the
     job must land in serve.cancelled — the worker is free again long
     before the ping's nominal delay. *)
  with_server ~args:[ "--jobs"; "1" ] (fun sock ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      Serve_protocol.send_request fd (Serve_protocol.Ping 30.);
      Unix.sleepf 0.3 (* let the worker pick the job up *);
      Unix.close fd;
      let deadline = Unix.gettimeofday () +. 10. in
      let rec wait_cancelled () =
        let m = scrape sock in
        if counter_value m "emask_serve_cancelled" >= 1 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "disconnect did not cancel the running job"
        else begin
          Unix.sleepf 0.2;
          wait_cancelled ()
        end
      in
      wait_cancelled ())

(* --- abusive clients ------------------------------------------------------- *)

(* A client that connects and never finishes its request must cost the
   daemon at most --read-timeout on the accept thread, and the failed
   read must cost exactly that connection — not the accept loop: after
   both a hung HTTP head and a hung half-frame, the daemon still
   answers pings, and the stalled connections have been dropped (EOF
   on the client side). *)
let test_abusive_clients_survive () =
  with_server ~args:[ "--read-timeout"; "0.5" ] (fun sock ->
      let hang payload =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        let b = Bytes.of_string payload in
        ignore (Unix.write fd b 0 (Bytes.length b));
        fd
      in
      let http = hang "GET " (* head that never completes *) in
      let frame = hang "\x00\x00" (* frame header that never completes *) in
      let code, _, _ = run [ "client"; "ping"; "--socket"; sock ] in
      check_int "daemon serves past hung clients" 0 code;
      let dropped fd =
        let deadline = Unix.gettimeofday () +. 10. in
        let rec wait () =
          match Unix.select [ fd ] [] [] 0.2 with
          | [ _ ], _, _ -> Unix.recv fd (Bytes.create 1) 0 1 [] = 0
          | _ -> Unix.gettimeofday () <= deadline && wait ()
        in
        wait ()
      in
      check "hung HTTP client was dropped" true (dropped http);
      check "hung frame client was dropped" true (dropped frame);
      Unix.close http;
      Unix.close frame)

(* A client that hangs up while its job is still parked in the queue
   must have the job dropped as CANCELLED, not run: the queue watcher
   trips the flag at park time, so the counter moves long before the
   abandoned ping's nominal 30 s delay could elapse. *)
let test_queued_disconnect_drops () =
  with_server ~args:[ "--jobs"; "1" ] (fun sock ->
      let dev_null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let busy =
        Unix.create_process emask
          [| emask; "client"; "ping"; "--delay"; "2"; "--socket"; sock |]
          dev_null dev_null dev_null
      in
      Unix.close dev_null;
      Unix.sleepf 0.3 (* the lone worker picks the first ping up *);
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      Serve_protocol.send_request fd (Serve_protocol.Ping 30.);
      Unix.sleepf 0.3 (* the second ping parks in the queue *);
      Unix.close fd (* ... and its client gives up *);
      let deadline = Unix.gettimeofday () +. 10. in
      let rec wait_cancelled () =
        let m = scrape sock in
        if counter_value m "emask_serve_cancelled" >= 1 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "queued job of a gone client was not dropped"
        else begin
          Unix.sleepf 0.2;
          wait_cancelled ()
        end
      in
      wait_cancelled ();
      ignore (Unix.waitpid [] busy))

(* --- client / one-shot parity ---------------------------------------------- *)

(* A flag the job does not take is rejected by the client's argument
   parser exactly as by the one-shot CLI — before any connection: the
   socket here does not exist, so reaching the network would fail
   differently (IO001, exit 2). *)
let test_client_rejects_foreign_flags () =
  let sock = fresh_sock () in
  List.iter
    (fun (args, flag) ->
      let name = String.concat " " args in
      let ocode, _, oerr = run args in
      let ccode, cout, cerr = run (("client" :: args) @ [ "--socket"; sock ]) in
      check (name ^ " one-shot rejects") true (ocode <> 0);
      check_int (name ^ " client exits like the one-shot") ocode ccode;
      check (name ^ " client prints nothing") true (cout = []);
      let first = function line :: _ -> line | [] -> "" in
      check (name ^ " one-shot names the flag") true (contains (first oerr) flag);
      check (name ^ " client names the flag") true (contains (first cerr) flag))
    [
      ([ "lint"; "cmb"; "--band"; "0.3" ], "--band");
      ([ "spcf"; "cmb"; "--contract" ], "--contract");
    ]

(* A minimal raw request — job, circuit, jobs 1, plus the edit text
   for eco — must render exactly what the one-shot CLI prints at
   --jobs 1: every other parameter defaults from the same table on
   both sides. *)
let test_bare_request_defaults () =
  let edits = Filename.temp_file "emask_edits" ".eco" in
  let oc = open_out edits in
  output_string oc "# no edits\n";
  close_out oc;
  let lines_of s =
    match List.rev (String.split_on_char '\n' s) with
    | "" :: rest -> List.rev rest
    | l -> List.rev l
  in
  with_server (fun sock ->
      List.iter
        (fun (job, extra, cli_extra) ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX sock);
          Serve_protocol.write_frame fd
            (Printf.sprintf {|{"job":%S,"circuit":"cmb","jobs":1%s}|} job extra);
          let response = Serve_protocol.recv_response fd in
          Unix.close fd;
          let ccode, cout, _ = run ([ job; "cmb"; "--jobs"; "1" ] @ cli_extra) in
          match response with
          | Serve_protocol.Ok_output (scode, sout) ->
            check_int (job ^ " exit code") ccode scode;
            check_string (job ^ " output")
              (String.concat "\n" (normalize cout))
              (String.concat "\n" (normalize (lines_of sout)))
          | _ -> Alcotest.failf "%s: expected an ok response" job)
        [
          ("lint", "", []);
          ("spcf", "", []);
          ("paths", "", []);
          ("protect", "", []);
          ( "eco",
            Printf.sprintf {|,"edits":"# no edits\n","edits_name":%S|} edits,
            [ "--edits"; edits ] );
        ]);
  Sys.remove edits

(* --- protocol-level rejection --------------------------------------------- *)

let test_protocol_rejections () =
  with_server (fun sock ->
      (* Garbage framing: answered with PROTO001, connection closed. *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      Serve_protocol.write_frame fd "this is not json";
      (match Serve_protocol.recv_response fd with
      | Serve_protocol.Rejected (code, _) -> check_string "proto code" "PROTO001" code
      | _ -> Alcotest.fail "expected a PROTO001 rejection");
      Unix.close fd;
      (* Out-of-domain parameters are rejected with the CLI converter's
         message, not silently clamped. *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      Serve_protocol.write_frame fd
        {|{"job":"spcf","circuit":"cmb","theta":1.5}|};
      (match Serve_protocol.recv_response fd with
      | Serve_protocol.Rejected (code, msg) ->
        check_string "theta code" "PROTO001" code;
        check "theta message names the domain" true (contains msg "(0, 1]")
      | _ -> Alcotest.fail "expected a PROTO001 rejection");
      Unix.close fd)

let () =
  Alcotest.run "serve"
    [
      ( "serve",
        [
          Alcotest.test_case "byte identity" `Slow test_byte_identity;
          Alcotest.test_case "cache hits" `Quick test_cache_hits;
          Alcotest.test_case "queue full" `Quick test_queue_full;
          Alcotest.test_case "budget exceeded" `Quick test_budget_exceeded;
          Alcotest.test_case "disconnect cancels" `Quick test_disconnect_cancels;
          Alcotest.test_case "abusive clients survive" `Quick
            test_abusive_clients_survive;
          Alcotest.test_case "queued disconnect drops" `Quick
            test_queued_disconnect_drops;
          Alcotest.test_case "protocol rejections" `Quick test_protocol_rejections;
          Alcotest.test_case "client rejects foreign flags" `Quick
            test_client_rejects_foreign_flags;
          Alcotest.test_case "bare request defaults" `Quick test_bare_request_defaults;
        ] );
    ]
