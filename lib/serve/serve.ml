(* The [emask serve] daemon: a persistent analysis service over the
   length-prefixed JSON protocol of {!Serve_protocol}.

   Shape: the calling thread runs the accept loop; [jobs] worker
   domains drain a bounded queue of accepted connections. Admission
   control happens at accept time — a full queue is answered with a
   structured rejection immediately, never by silently parking the
   client; accepted sockets carry an SO_RCVTIMEO deadline so a client
   that never finishes its request cannot wedge the accept thread.
   Each job owns a per-request {!Budget.flag}; watcher threads turn
   client disconnect into a tripped flag — [watch_queue] sweeps parked
   jobs, [watch_disconnect] covers the running one — which the budget
   machinery surfaces as [Budget_exceeded Cancelled] at the next
   poll — cancellation is cooperative and cannot corrupt a shared BDD
   manager mid-operation.

   Scrapes are served in the accept loop (never queued): a [metrics]
   job frame, or a plain [GET /metrics] HTTP request — the first bytes
   of a connection are peeked to tell the two apart, so one socket
   serves both the frame protocol and curl. *)

type bind = Unix_sock of string | Tcp of string * int

type config = {
  bind : bind;
  jobs : int;
  queue_cap : int;
  cache_mb : int;
  default_budget : Budget.spec;
      (** merged under every request's own budget (request wins) *)
  ledger : string option;  (** per-request JSONL records, appended here *)
  read_timeout : float;
      (** SO_RCVTIMEO on accepted sockets: a client that connects and
          never finishes its request head/frame costs at most this
          many seconds of the accept thread, not the daemon *)
  verbose : bool;
}

let default_config =
  {
    bind = Tcp ("127.0.0.1", 9309);
    jobs = 2;
    queue_cap = 16;
    cache_mb = 256;
    default_budget = Budget.no_limits;
    ledger = None;
    read_timeout = 10.;
    verbose = false;
  }

type job = {
  fd : Unix.file_descr;
  req : Serve_protocol.request;
  flag : Budget.flag;
}

type t = {
  config : config;
  cache : Serve_cache.t;
  queue : job Queue.t;
  qlock : Mutex.t;
  qcond : Condition.t;
  stop : bool Atomic.t;
}

let logf t fmt =
  if t.config.verbose then Printf.eprintf ("emask serve: " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

(* --- metrics ------------------------------------------------------------- *)

let metrics_body t =
  let entries, used, cap = Serve_cache.stats t.cache in
  Obs_prom.render ()
  ^ Obs_prom.exposition
      (Serve_metrics.snapshot ()
      @ [
          ("serve.cache.entries", entries);
          ("serve.cache.bytes", used);
          ("serve.cache.cap_bytes", cap);
          ("serve.queue.cap", t.config.queue_cap);
          ("serve.workers", t.config.jobs);
        ])

(* --- job execution ------------------------------------------------------- *)

let poll_interval = 0.05

(* [ping] holds a worker while cooperatively polling its cancel flag —
   the deterministic fixture for queue-saturation and disconnect
   tests. *)
let run_ping flag delay =
  let deadline = Unix.gettimeofday () +. delay in
  let rec wait () =
    if Budget.tripped flag then
      raise (Budget.Budget_exceeded Budget.Cancelled);
    let left = deadline -. Unix.gettimeofday () in
    if left > 0. then begin
      Unix.sleepf (Float.min poll_interval left);
      wait ()
    end
  in
  wait ();
  (0, "pong\n")

let run_request ~note ?out ?snapshot_for ~lookup ~budget buf = function
  | Serve_protocol.Lint (c, r) -> Serve_jobs.run_lint ~note buf c r
  | Serve_protocol.Spcf (c, r, b) -> Serve_jobs.run_spcf ~note buf lookup c r (budget b)
  | Serve_protocol.Paths (c, r, b) ->
    Serve_jobs.run_paths ~note buf lookup c r (budget b)
  | Serve_protocol.Protect (c, r, b) ->
    Serve_jobs.run_protect ~note ?out buf lookup c r (budget b)
  | Serve_protocol.Eco (c, r, b) ->
    Serve_jobs.run_eco ~note ?snapshot_for buf lookup c r (budget b)
  | Serve_protocol.Ping _ | Serve_protocol.Metrics | Serve_protocol.Shutdown ->
    invalid_arg "Serve.run_request: not an analysis job"

let run_job t (j : job) note =
  let budget rspec =
    Budget.cancelled_by j.flag (Budget.merge rspec t.config.default_budget)
  in
  let run ?snapshot_for lookup =
    let buf = Buffer.create 1024 in
    let code = run_request ~note ?snapshot_for ~lookup ~budget buf j.req in
    (code, Buffer.contents buf)
  in
  match j.req with
  | Serve_protocol.Eco (c, _, _) ->
    (* Whole-job entry lock: the cached baseline's manager is shared,
       and the recompute mutates it. The entry is pinned for the whole
       job — the shadowed [lookup] resolves this circuit to the locked
       entry, never back through the table (see Serve_cache). *)
    Serve_cache.with_eco_lock t.cache c (fun ~lookup ~snapshot_for ->
        run ~snapshot_for lookup)
  | Serve_protocol.Ping delay -> run_ping j.flag delay
  | Serve_protocol.Metrics -> (0, metrics_body t)
  | Serve_protocol.Shutdown -> (0, "shutting down\n")
  | Serve_protocol.Lint _ | Serve_protocol.Spcf _ | Serve_protocol.Paths _
  | Serve_protocol.Protect _ ->
    run (Serve_cache.lookup t.cache)

let job_name = function
  | Serve_protocol.Lint _ -> "lint"
  | Serve_protocol.Spcf _ -> "spcf"
  | Serve_protocol.Paths _ -> "paths"
  | Serve_protocol.Protect _ -> "protect"
  | Serve_protocol.Eco _ -> "eco"
  | Serve_protocol.Ping _ -> "ping"
  | Serve_protocol.Metrics -> "metrics"
  | Serve_protocol.Shutdown -> "shutdown"

(* Run one job to a response, classifying failures exactly as the CLI
   does (same codes and messages), plus the server-only outcomes. *)
let response_of t (j : job) note =
  match run_job t j note with
  | code, output -> Serve_protocol.Ok_output (code, output)
  | exception Budget.Budget_exceeded Budget.Cancelled ->
    Serve_metrics.incr Serve_metrics.cancelled;
    Serve_protocol.Error_resp ("CANCELLED", "client disconnected; job cancelled")
  | exception (Budget.Budget_exceeded _ as e) ->
    Serve_metrics.incr Serve_metrics.budget_exhausted;
    let code, msg = Option.get (Serve_jobs.error_code e) in
    Serve_protocol.Error_resp (code, msg)
  | exception Analysis.Lint.Gate_failed msg ->
    Serve_metrics.incr Serve_metrics.errors;
    Serve_protocol.Error_resp ("GATE001", msg)
  | exception e -> (
    Serve_metrics.incr Serve_metrics.errors;
    match Serve_jobs.error_code e with
    | Some (code, msg) -> Serve_protocol.Error_resp (code, msg)
    | None -> Serve_protocol.Error_resp ("SERVE001", Printexc.to_string e))

(* --- disconnect watcher -------------------------------------------------- *)

(* A thread that trips the job's cancel flag when the peer goes away.
   One request / one response means the client writes nothing after
   the request frame, so a readable descriptor that peeks zero bytes
   is EOF — a disconnect. (A misbehaving client that pipelines extra
   bytes merely loses its disconnect cancellation.) *)
let watch_disconnect fd flag ~done_ =
  Thread.create
    (fun () ->
      try
        while (not (Atomic.get done_)) && not (Budget.tripped flag) do
          let readable, _, _ = Unix.select [ fd ] [] [] poll_interval in
          if readable <> [] then
            if Unix.recv fd (Bytes.create 1) 0 1 [ Unix.MSG_PEEK ] = 0 then
              Budget.trip flag
            else Thread.delay poll_interval
        done
      with Unix.Unix_error _ -> ())
    ()

(* The queued-job counterpart of [watch_disconnect]: one thread (owned
   by the accept domain) that polls the fds of jobs still parked in
   the queue, so a client that hangs up while waiting trips its cancel
   flag before a worker wastes time running the job — exactly the
   overload conditions the queue exists for. Racing a worker that
   dequeues the job mid-sweep is harmless: MSG_PEEK consumes nothing,
   and tripping the flag of a job that already ran is a no-op; a peek
   that errors (the fd closed under us) conservatively trips too. *)
let watch_queue t =
  Thread.create
    (fun () ->
      while not (Atomic.get t.stop) do
        Thread.delay poll_interval;
        Mutex.lock t.qlock;
        let queued = Queue.fold (fun acc j -> j :: acc) [] t.queue in
        Mutex.unlock t.qlock;
        List.iter
          (fun j ->
            if not (Budget.tripped j.flag) then
              try
                match Unix.select [ j.fd ] [] [] 0. with
                | [ _ ], _, _ ->
                  if Unix.recv j.fd (Bytes.create 1) 0 1 [ Unix.MSG_PEEK ] = 0 then
                    Budget.trip j.flag
                | _ -> ()
              with Unix.Unix_error _ -> Budget.trip j.flag)
          queued
      done)
    ()

(* --- workers ------------------------------------------------------------- *)

let dequeue t =
  Mutex.lock t.qlock;
  let rec next () =
    if not (Queue.is_empty t.queue) then begin
      let j = Queue.pop t.queue in
      Mutex.unlock t.qlock;
      Some j
    end
    else if Atomic.get t.stop then begin
      Mutex.unlock t.qlock;
      None
    end
    else begin
      Condition.wait t.qcond t.qlock;
      next ()
    end
  in
  next ()

let ledger_append t ~cmd notes =
  match t.config.ledger with
  | None -> ()
  | Some path -> Obs_ledger.append ~path ~notes ~cmd ()

let worker t () =
  let rec loop () =
    match dequeue t with
    | None -> ()
    | Some j ->
      let name = job_name j.req in
      let notes = ref [] in
      let note =
        match t.config.ledger with
        | None -> None
        | Some _ -> Some (fun k v -> notes := !notes @ [ (k, v) ])
      in
      let started = Unix.gettimeofday () in
      let resp =
        if Budget.tripped j.flag then begin
          (* The client left while the job sat in the queue — tripped
             by [watch_queue]'s sweep of parked fds. *)
          Serve_metrics.incr Serve_metrics.cancelled;
          Serve_protocol.Error_resp ("CANCELLED", "client disconnected; job cancelled")
        end
        else begin
          let done_ = Atomic.make false in
          let watcher = watch_disconnect j.fd j.flag ~done_ in
          Fun.protect
            ~finally:(fun () ->
              Atomic.set done_ true;
              Thread.join watcher)
            (fun () -> response_of t j note)
        end
      in
      ledger_append t ~cmd:("serve." ^ name)
        (!notes
        @ [
            ("runtime_s", Obs_json.Float (Unix.gettimeofday () -. started));
            ( "status",
              Obs_json.String
                (match resp with
                | Serve_protocol.Ok_output _ -> "ok"
                | Serve_protocol.Rejected _ -> "rejected"
                | Serve_protocol.Error_resp _ -> "error") );
          ]);
      (try Serve_protocol.send_response j.fd resp
       with Unix.Unix_error _ | Serve_protocol.Protocol_error _ -> ());
      (try Unix.close j.fd with Unix.Unix_error _ -> ());
      loop ()
  in
  loop ()

(* --- accept loop --------------------------------------------------------- *)

let http_404 = "HTTP/1.1 404 Not Found\r\nConnection: close\r\n\r\n"

let http_response body =
  Printf.sprintf
    "HTTP/1.1 200 OK\r\n\
     Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    (String.length body) body

(* Serve a plain-HTTP scrape on a connection whose first bytes peeked
   as "GET ". Reads until the end of the request head (or EOF), checks
   the path, answers, closes. *)
let serve_http t fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let rec read_head () =
    if
      Buffer.length buf < 8192
      && not
           (String.length (Buffer.contents buf) >= 4
           && String.ends_with ~suffix:"\r\n\r\n" (Buffer.contents buf))
    then begin
      match Unix.read fd chunk 0 1024 with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        read_head ()
    end
  in
  read_head ();
  let head = Buffer.contents buf in
  let target = match String.split_on_char ' ' head with _ :: t :: _ -> t | _ -> "" in
  let reply =
    if target = "/metrics" || target = "/metrics/" then
      http_response (metrics_body t)
    else http_404
  in
  let b = Bytes.unsafe_of_string reply in
  let sent = ref 0 in
  (try
     while !sent < Bytes.length b do
       sent := !sent + Unix.write fd b !sent (Bytes.length b - !sent)
     done
   with Unix.Unix_error _ -> ())

let peek_prefix fd n =
  let b = Bytes.create n in
  let got = Unix.recv fd b 0 n [ Unix.MSG_PEEK ] in
  Bytes.sub_string b 0 got

let enqueue t fd req =
  let j = { fd; req; flag = Budget.flag () } in
  Mutex.lock t.qlock;
  let admitted =
    if Queue.length t.queue < t.config.queue_cap then begin
      Queue.push j t.queue;
      Condition.signal t.qcond;
      true
    end
    else false
  in
  Mutex.unlock t.qlock;
  admitted

let handle_conn_body t fd ~close =
  match peek_prefix fd 4 with
  | "GET " ->
    serve_http t fd;
    close ();
    true
  | _ -> (
    match Serve_protocol.parse_request (Serve_protocol.read_frame fd) with
    | exception Serve_protocol.Protocol_error msg ->
      Serve_metrics.incr Serve_metrics.rejected_proto;
      (try Serve_protocol.send_response fd (Serve_protocol.Rejected ("PROTO001", msg))
       with Unix.Unix_error _ | Serve_protocol.Protocol_error _ -> ());
      close ();
      true
    | exception (Unix.Unix_error _ as e) ->
      logf t "connection lost before request: %s" (Printexc.to_string e);
      close ();
      true
    | Serve_protocol.Metrics ->
      Serve_metrics.incr Serve_metrics.requests;
      (try
         Serve_protocol.send_response fd
           (Serve_protocol.Ok_output (0, metrics_body t))
       with Unix.Unix_error _ | Serve_protocol.Protocol_error _ -> ());
      close ();
      true
    | Serve_protocol.Shutdown ->
      Serve_metrics.incr Serve_metrics.requests;
      (try
         Serve_protocol.send_response fd
           (Serve_protocol.Ok_output (0, "shutting down\n"))
       with Unix.Unix_error _ | Serve_protocol.Protocol_error _ -> ());
      close ();
      false
    | req ->
      Serve_metrics.incr Serve_metrics.requests;
      if enqueue t fd req then begin
        Serve_metrics.incr Serve_metrics.accepted;
        true
      end
      else begin
        Serve_metrics.incr Serve_metrics.rejected_queue;
        (try
           Serve_protocol.send_response fd
             (Serve_protocol.Rejected
                ( "QUEUE001",
                  Printf.sprintf
                    "job queue is full (%d queued, %d workers); retry later"
                    t.config.queue_cap t.config.jobs ))
         with Unix.Unix_error _ | Serve_protocol.Protocol_error _ -> ());
        close ();
        true
      end)

(* Handle one accepted connection in the accept loop. Returns [true]
   to keep serving, [false] on shutdown. Every per-connection I/O
   failure — a reset peer (ECONNRESET from a port scanner or an
   aborted curl), a request read that trips SO_RCVTIMEO — must cost
   exactly this connection: this wrapper is what keeps one misbehaving
   client from reaching [run]'s shutdown path and taking the daemon
   with it. *)
let handle_conn t fd =
  let close () = try Unix.close fd with Unix.Unix_error _ -> () in
  try handle_conn_body t fd ~close
  with Unix.Unix_error _ as e ->
    logf t "connection error: %s" (Printexc.to_string e);
    close ();
    true

let listen_socket config =
  match config.bind with
  | Unix_sock path ->
    (match Unix.lstat path with
    | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
    | _ -> ()
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | Tcp (host, port) ->
    let addr =
      try (List.hd (Unix.getaddrinfo host (string_of_int port)
             [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ])).Unix.ai_addr
      with Failure _ ->
        Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
    in
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd addr;
    Unix.listen fd 64;
    fd

let bound_port fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> Some port
  | Unix.ADDR_UNIX _ -> None

(* Run the daemon until a [shutdown] request. [ready] is called once
   the socket is listening, with the actual port (0 in the config
   means "pick one"). *)
let run ?(ready = fun _ -> ()) config =
  (* A client that disconnects mid-response must cost us an EPIPE
     errno, not a fatal signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let t =
    {
      config;
      cache = Serve_cache.create ~cap_mb:config.cache_mb;
      queue = Queue.create ();
      qlock = Mutex.create ();
      qcond = Condition.create ();
      stop = Atomic.make false;
    }
  in
  let listen_fd = listen_socket config in
  ready (Option.value ~default:0 (bound_port listen_fd));
  logf t "listening (%d workers, queue %d, cache %d MiB)" config.jobs
    config.queue_cap config.cache_mb;
  let workers = List.init config.jobs (fun _ -> Domain.spawn (worker t)) in
  let queue_watcher = watch_queue t in
  let rec accept_loop () =
    match Unix.accept listen_fd with
    | fd, _ ->
      (* Bound every request read (the peek, an HTTP head, a frame):
         a client that connects and trickles or sends nothing raises
         EAGAIN into [handle_conn]'s per-connection handler instead of
         blocking the accept thread — and every other client — forever. *)
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO config.read_timeout
       with Unix.Unix_error _ -> ());
      if handle_conn t fd then accept_loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
  in
  (try accept_loop () with Unix.Unix_error _ -> ());
  Atomic.set t.stop true;
  Mutex.lock t.qlock;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qlock;
  List.iter Domain.join workers;
  Thread.join queue_watcher;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (match config.bind with
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  logf t "stopped"
