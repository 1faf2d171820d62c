(* Domain-safe instrumentation registry.

   v1 of this module was single-threaded global mutable state, which
   forced [Spcf.Parallel] to fall back to sequential execution whenever
   statistics collection was on — the one mode worth profiling could not
   be observed. v2 splits the registry in two:

   - *Descriptors* ([counter] / [histogram] values) are immutable
     (name, slot) pairs interned in a global table under a mutex.
     Creation happens at module initialisation and is rare; the mutex is
     never taken on a recording path.

   - *Cells* (counts, histogram buckets, the span tree and stack, the
     trace-event buffer) live in domain-local storage: every domain that
     records through a descriptor lazily gets its own state and writes
     only to it. No recording path synchronises with any other domain.

   A worker domain finishes by calling [export_snapshot] — a plain-data
   copy of everything it recorded — and ships it back with its results;
   the coordinating domain calls [merge_snapshot] on each snapshot in a
   deterministic order (worker 0, worker 1, ...). Merging sums counters
   (max-merges high-water gauges), adds histograms bucket-wise, grafts
   the worker's span tree under the currently open span, assigns the
   worker the next free timeline row for its trace events, and records
   a per-domain counter breakdown for attribution.

   The zero-cost-when-disabled discipline is unchanged: every recording
   entry point ([incr], [add], [observe], [enter], ...) is a tiny
   wrapper that branches on [on_flag] and tail-calls the real
   implementation, so the disabled path is one load + one conditional
   and never allocates. Registration of counters/histograms happens
   lazily on the first recording (per domain), which keeps the registry
   empty after a disabled run. *)

let on_flag = ref false
let on () = !on_flag
let set_enabled b = on_flag := b

let env_truthy name =
  match Sys.getenv_opt name with None | Some "" | Some "0" -> false | Some _ -> true

let () = if env_truthy "EMASK_OBS" then on_flag := true

let debug_flag = env_truthy "EMASK_OBS_DEBUG" || env_truthy "EMASK_GEN_DEBUG"
let debug () = debug_flag

(* Monotonic clock, one code path for all timing: clock_gettime
   (CLOCK_MONOTONIC) through a one-function C stub, so spans and
   reported runtimes cannot go negative under NTP wall-clock steps.
   Seconds from an arbitrary origin; only differences are meaningful. *)
external monotonic_now : unit -> float = "emask_obs_monotonic_now"

let now () = monotonic_now ()

(* Trace timestamps are microseconds from process start — one origin for
   every domain, so events from different timeline rows line up. *)
let trace_origin = monotonic_now ()
let now_us () = (monotonic_now () -. trace_origin) *. 1e6

(* Tracing (timeline events) is a second, independent switch: statistics
   aggregation does not imply keeping a per-activation event log. The
   CLI enables both for [--trace]. *)
let trace_flag = ref false
let trace () = !trace_flag
let set_trace_enabled b = trace_flag := b
let () = if env_truthy "EMASK_TRACE" then trace_flag := true

(* --- descriptors -------------------------------------------------------- *)

type counter = { cname : string; slot : int }
type histogram = { hname : string; hslot : int }

(* Interning: creating the same name twice yields the same slot, which
   is what makes cross-domain merging by name well defined. The arrays
   of names grow under the mutex; readers only index below the
   published count, and slots are append-only. *)
let reg_mutex = Mutex.create ()

type intern = {
  table : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable count : int;
}

let make_intern () = { table = Hashtbl.create 64; names = Array.make 64 ""; count = 0 }
let c_intern = make_intern ()
let h_intern = make_intern ()

let intern t name =
  Mutex.protect reg_mutex (fun () ->
      match Hashtbl.find_opt t.table name with
      | Some slot -> slot
      | None ->
        let slot = t.count in
        if slot >= Array.length t.names then begin
          let bigger = Array.make (2 * Array.length t.names) "" in
          Array.blit t.names 0 bigger 0 slot;
          t.names <- bigger
        end;
        t.names.(slot) <- name;
        t.count <- slot + 1;
        Hashtbl.add t.table name slot;
        slot)

let counter cname = { cname; slot = intern c_intern cname }
let histogram hname = { hname; hslot = intern h_intern hname }

(* --- spans (type shared with reporters) -------------------------------- *)

type span = {
  sname : string;
  mutable calls : int;
  mutable total : float;
  mutable children : span list;
  mutable live : int;
  mutable started : float;
}

let make_span sname =
  { sname; calls = 0; total = 0.; children = []; live = 0; started = 0. }

(* --- trace events ------------------------------------------------------- *)

type trace_event = {
  ev_tid : int;
  ev_kind : [ `Complete | `Instant ];
  ev_name : string;
  ev_ts_us : float;
  ev_dur_us : float;
}

(* --- per-domain state --------------------------------------------------- *)

type hcell = {
  mutable hn : int;
  mutable hsum : int;
  mutable hmax : int;
  hbuf : int array;
}

type dstate = {
  mutable counts : int array; (* slot -> value *)
  mutable cmax : bool array; (* slot recorded via record_max *)
  mutable ctouched : bool array;
  mutable corder : int list; (* touched slots, reverse first-use order *)
  mutable hcells : hcell option array;
  mutable horder : int list;
  mutable droot : span;
  mutable dstack : (span * float) list; (* span, trace ts (us) or nan *)
  mutable events : trace_event list; (* reverse emission order *)
  mutable next_tid : int; (* next free timeline row for merges *)
  mutable labels : (int * string) list; (* timeline row labels, reversed *)
  mutable breakdown : (string * (string * int) list) list; (* reversed *)
}

let fresh_state () =
  {
    counts = Array.make 64 0;
    cmax = Array.make 64 false;
    ctouched = Array.make 64 false;
    corder = [];
    hcells = Array.make 64 None;
    horder = [];
    droot = make_span "root";
    dstack = [];
    events = [];
    next_tid = 1;
    labels = [ (0, "main") ];
    breakdown = [];
  }

let state_key = Domain.DLS.new_key fresh_state
let state () = Domain.DLS.get state_key

let grown old fill n =
  let len = max 64 (Array.length old) in
  let len = ref len in
  while n >= !len do
    len := 2 * !len
  done;
  let bigger = Array.make !len fill in
  Array.blit old 0 bigger 0 (Array.length old);
  bigger

let ensure_counter st slot =
  if slot >= Array.length st.counts then begin
    st.counts <- grown st.counts 0 slot;
    st.cmax <- grown st.cmax false slot;
    st.ctouched <- grown st.ctouched false slot
  end;
  if not st.ctouched.(slot) then begin
    st.ctouched.(slot) <- true;
    st.corder <- slot :: st.corder
  end

let hcell_of st slot =
  if slot >= Array.length st.hcells then st.hcells <- grown st.hcells None slot;
  match st.hcells.(slot) with
  | Some cell -> cell
  | None ->
    let cell = { hn = 0; hsum = 0; hmax = 0; hbuf = Array.make 64 0 } in
    st.hcells.(slot) <- Some cell;
    st.horder <- slot :: st.horder;
    cell

(* --- counters ----------------------------------------------------------- *)

let add_slow c n =
  let st = state () in
  ensure_counter st c.slot;
  st.counts.(c.slot) <- st.counts.(c.slot) + n

let[@inline] incr c = if !on_flag then add_slow c 1
let[@inline] add c n = if !on_flag then add_slow c n

let record_max_slow c n =
  let st = state () in
  ensure_counter st c.slot;
  st.cmax.(c.slot) <- true;
  if n > st.counts.(c.slot) then st.counts.(c.slot) <- n

let[@inline] record_max c n = if !on_flag then record_max_slow c n

let counter_value c =
  let st = state () in
  if c.slot < Array.length st.counts then st.counts.(c.slot) else 0

let touch_counter c = if !on_flag then ensure_counter (state ()) c.slot

(* --- histograms --------------------------------------------------------- *)

(* Bucket 0 holds sample 0; bucket i >= 1 holds [2^(i-1), 2^i). 64
   buckets cover the whole nonnegative int range. *)
type hist_stats = {
  hn : int;
  hsum : int;
  hmax : int;
  hbuckets : (int * int) list;
}

let bucket_index v =
  if v <= 0 then 0
  else begin
    let i = ref 1 and v = ref v in
    while !v > 1 do
      v := !v lsr 1;
      Stdlib.incr i
    done;
    !i
  end

let bucket_lower i = if i = 0 then 0 else 1 lsl (i - 1)

let observe_slow h v =
  let cell = hcell_of (state ()) h.hslot in
  let v = Stdlib.max 0 v in
  cell.hn <- cell.hn + 1;
  cell.hsum <- cell.hsum + v;
  if v > cell.hmax then cell.hmax <- v;
  let i = bucket_index v in
  cell.hbuf.(i) <- cell.hbuf.(i) + 1

let[@inline] observe h v = if !on_flag then observe_slow h v

let touch_histogram h = if !on_flag then ignore (hcell_of (state ()) h.hslot)

let stats_of_cell cell =
  let hbuckets = ref [] in
  for i = Array.length cell.hbuf - 1 downto 0 do
    if cell.hbuf.(i) > 0 then
      hbuckets := (bucket_lower i, cell.hbuf.(i)) :: !hbuckets
  done;
  { hn = cell.hn; hsum = cell.hsum; hmax = cell.hmax; hbuckets = !hbuckets }

let empty_stats = { hn = 0; hsum = 0; hmax = 0; hbuckets = [] }

let histogram_stats h =
  let st = state () in
  if h.hslot < Array.length st.hcells then
    match st.hcells.(h.hslot) with
    | Some cell -> stats_of_cell cell
    | None -> empty_stats
  else empty_stats

(* --- spans -------------------------------------------------------------- *)

let root () = (state ()).droot

let child_of parent name =
  let rec find = function
    | [] ->
      let s = make_span name in
      parent.children <- s :: parent.children;
      s
    | s :: rest -> if s.sname = name then s else find rest
  in
  find parent.children

let push_event st ev = st.events <- ev :: st.events

let enter_slow name =
  let st = state () in
  (* Recursive re-entry: if a span with this name is already open on the
     stack, accumulate into it instead of growing a same-name chain;
     only its outermost activation contributes wall time. *)
  let rec open_ancestor = function
    | [] -> None
    | (s, _) :: rest -> if s.sname = name then Some s else open_ancestor rest
  in
  let s =
    match open_ancestor st.dstack with
    | Some s -> s
    | None ->
      let parent = match st.dstack with (s, _) :: _ -> s | [] -> st.droot in
      child_of parent name
  in
  s.calls <- s.calls + 1;
  if s.live = 0 then s.started <- now ();
  s.live <- s.live + 1;
  let tts = if !trace_flag then now_us () else Float.nan in
  st.dstack <- (s, tts) :: st.dstack

let[@inline] enter name = if !on_flag then enter_slow name

let leave_slow () =
  let st = state () in
  match st.dstack with
  | [] -> () (* unmatched leave (e.g. enabled mid-run): ignore *)
  | (s, tts) :: rest ->
    st.dstack <- rest;
    s.live <- s.live - 1;
    if s.live = 0 then s.total <- s.total +. (now () -. s.started);
    if not (Float.is_nan tts) then
      push_event st
        {
          ev_tid = 0;
          ev_kind = `Complete;
          ev_name = s.sname;
          ev_ts_us = tts;
          ev_dur_us = Float.max 0. (now_us () -. tts);
        }

let[@inline] leave () = if !on_flag then leave_slow ()

let with_span name f =
  if not !on_flag then f ()
  else begin
    enter_slow name;
    Fun.protect ~finally:leave_slow f
  end

let timed name f =
  let t0 = now () in
  let finish () = now () -. t0 in
  if not !on_flag then begin
    let r = f () in
    (r, finish ())
  end
  else begin
    enter_slow name;
    let r = Fun.protect ~finally:leave_slow f in
    (r, finish ())
  end

let instant name =
  if !trace_flag then
    push_event (state ())
      {
        ev_tid = 0;
        ev_kind = `Instant;
        ev_name = name;
        ev_ts_us = now_us ();
        ev_dur_us = 0.;
      }

(* --- registry ----------------------------------------------------------- *)

let registered_counters () =
  let st = state () in
  List.rev_map (fun slot -> (c_intern.names.(slot), st.counts.(slot))) st.corder

let registered_histograms () =
  let st = state () in
  List.rev_map
    (fun slot ->
      let stats =
        match st.hcells.(slot) with
        | Some cell -> stats_of_cell cell
        | None -> empty_stats
      in
      (h_intern.names.(slot), stats))
    st.horder

let trace_events () = List.rev (state ()).events
let thread_labels () = List.rev (state ()).labels
let domain_breakdown () = List.rev (state ()).breakdown
let reset () = Domain.DLS.set state_key (fresh_state ())

(* --- snapshots: cross-domain export / merge ----------------------------- *)

type snapshot = {
  s_counters : (string * int * bool) list; (* name, value, is-high-water *)
  s_hists : (string * hist_stats) list;
  s_root : span;
  s_events : trace_event list; (* emission order *)
}

let export_snapshot () =
  let st = state () in
  {
    s_counters =
      List.rev_map
        (fun slot -> (c_intern.names.(slot), st.counts.(slot), st.cmax.(slot)))
        st.corder;
    s_hists =
      List.rev_map
        (fun slot ->
          let stats =
            match st.hcells.(slot) with
            | Some cell -> stats_of_cell cell
            | None -> empty_stats
          in
          (h_intern.names.(slot), stats))
        st.horder;
    s_root = st.droot;
    s_events = List.rev st.events;
  }

(* The calling domain takes a worker's share of a parallel run: it
   records into a fresh state exactly as a spawned worker would, and
   its own state (open spans included) comes back untouched. Exporting
   the caller's own registry instead and merging it back into itself
   would double every count on each run. *)
let isolated f =
  let saved = state () in
  Domain.DLS.set state_key (fresh_state ());
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set state_key saved)
    (fun () ->
      let r = f () in
      (r, export_snapshot ()))

let rec merge_span_into parent (w : span) =
  let t = child_of parent w.sname in
  t.calls <- t.calls + w.calls;
  t.total <- t.total +. w.total;
  List.iter (merge_span_into t) (List.rev w.children)

let merge_snapshot ?label snap =
  let st = state () in
  let tid = st.next_tid in
  st.next_tid <- tid + 1;
  let label =
    match label with Some l -> l | None -> Printf.sprintf "worker %d" tid
  in
  st.labels <- (tid, label) :: st.labels;
  (* Counters: sum, except high-water gauges which merge by max (the
     merged value answers "the largest any one domain saw"). *)
  List.iter
    (fun (name, v, is_max) ->
      let c = counter name in
      ensure_counter st c.slot;
      if is_max then begin
        st.cmax.(c.slot) <- true;
        if v > st.counts.(c.slot) then st.counts.(c.slot) <- v
      end
      else st.counts.(c.slot) <- st.counts.(c.slot) + v)
    snap.s_counters;
  (* Histograms: bucket-wise addition. *)
  List.iter
    (fun (name, stats) ->
      let h = histogram name in
      let cell = hcell_of st h.hslot in
      cell.hn <- cell.hn + stats.hn;
      cell.hsum <- cell.hsum + stats.hsum;
      if stats.hmax > cell.hmax then cell.hmax <- stats.hmax;
      List.iter
        (fun (lo, count) ->
          let i = bucket_index lo in
          cell.hbuf.(i) <- cell.hbuf.(i) + count)
        stats.hbuckets)
    snap.s_hists;
  (* Spans: graft the worker tree under the currently open span, so the
     merged tree nests the way the sequential run's would. *)
  let target = match st.dstack with (s, _) :: _ -> s | [] -> st.droot in
  List.iter (merge_span_into target) (List.rev snap.s_root.children);
  (* Trace events: the worker owns one whole timeline row. *)
  List.iter (fun ev -> push_event st { ev with ev_tid = tid }) snap.s_events;
  st.breakdown <-
    (label, List.map (fun (n, v, _) -> (n, v)) snap.s_counters) :: st.breakdown
