(* A small DPLL SAT solver: two-watched-literal unit propagation over
   a trail, chronological backtracking, lowest-unassigned-variable
   branching with true tried first. Built as an *independent*
   verification engine — equivalence and coverage results proved with
   BDDs elsewhere in the repository are cross-checked against it, so a
   bug would have to appear identically in two very different procedures
   to go unnoticed.

   Unit propagation reaches the same closure in any clause order, and
   finds a conflict exactly when that closure holds one. So the search
   tree is fixed by the branching rule alone, and the model returned is
   the lexicographically greatest one (variable 0 most significant, true
   above false).

   Literal encoding: variable v >= 0; literal = 2v (positive) or 2v+1
   (negated). *)

type literal = int

let pos v = 2 * v
let neg v = (2 * v) + 1
let var_of l = l / 2
let is_neg l = l land 1 = 1
let negate l = l lxor 1

type result = Sat of bool array | Unsat

let c_solves = Obs.counter "sat.dpll.solves"
let c_decisions = Obs.counter "sat.dpll.decisions"
let c_propagations = Obs.counter "sat.dpll.propagations"
let c_conflicts = Obs.counter "sat.dpll.conflicts"
let c_max_level = Obs.counter "sat.dpll.max_decision_level"
let h_decision_level = Obs.histogram "sat.dpll.decision_level"

type t = {
  nvars : int;
  mutable clauses : literal array list;
}

let create nvars = { nvars; clauses = [] }

let add_clause t lits =
  (* Trivially true clauses (l ∨ ¬l) are dropped; duplicates kept. *)
  let tautological =
    List.exists (fun l -> List.mem (negate l) lits) lits
  in
  if not tautological then t.clauses <- Array.of_list lits :: t.clauses

exception Found of bool array

let solve ?(budget = Budget.unlimited) t =
  Obs.enter "sat.dpll.solve";
  Obs.incr c_solves;
  (* Watching swaps literals inside a clause, so work on copies. *)
  let clauses = Array.map Array.copy (Array.of_list t.clauses) in
  (* 0 = unassigned, 1 = true, -1 = false *)
  let value = Array.make t.nvars 0 in
  let lit_value l =
    let v = value.(var_of l) in
    if v = 0 then 0 else if is_neg l then -v else v
  in
  (* The trail holds assigned literals in order; [qhead] is the first
     whose consequences are not yet propagated. *)
  let trail = Array.make (max 1 t.nvars) 0 in
  let trail_len = ref 0 in
  let qhead = ref 0 in
  let assign l =
    value.(var_of l) <- (if is_neg l then -1 else 1);
    trail.(!trail_len) <- l;
    incr trail_len
  in
  let undo_to mark =
    while !trail_len > mark do
      decr trail_len;
      value.(var_of trail.(!trail_len)) <- 0
    done;
    qhead := mark
  in
  (* [watches.(l)] lists (first [n_watches.(l)] entries) the clauses
     watching literal [l] at position 0 or 1. Positions, not literals,
     are watched: a clause repeating a literal is unit only when every
     other position is false, as a per-occurrence count would say. *)
  let nlits = 2 * t.nvars in
  let watches = Array.make nlits [||] in
  let n_watches = Array.make nlits 0 in
  let watch l ci =
    let n = n_watches.(l) in
    if n = Array.length watches.(l) then begin
      let bigger = Array.make (max 4 (2 * n)) 0 in
      Array.blit watches.(l) 0 bigger 0 n;
      watches.(l) <- bigger
    end;
    watches.(l).(n) <- ci;
    n_watches.(l) <- n + 1
  in
  let conflict () =
    Obs.incr c_conflicts;
    false
  in
  let propagate () =
    let ok = ref true in
    while !ok && !qhead < !trail_len do
      let fl = negate trail.(!qhead) in
      incr qhead;
      let ws = watches.(fl) in
      let n = n_watches.(fl) in
      let i = ref 0 and j = ref 0 in
      while !i < n do
        let ci = ws.(!i) in
        incr i;
        let c = clauses.(ci) in
        if c.(0) = fl then begin
          c.(0) <- c.(1);
          c.(1) <- fl
        end;
        let other = c.(0) in
        let other_value = lit_value other in
        if other_value = 1 then begin
          ws.(!j) <- ci;
          incr j
        end
        else begin
          let len = Array.length c in
          let k = ref 2 in
          while !k < len && lit_value c.(!k) = -1 do
            incr k
          done;
          if !k < len then begin
            c.(1) <- c.(!k);
            c.(!k) <- fl;
            watch c.(1) ci
          end
          else begin
            ws.(!j) <- ci;
            incr j;
            if other_value = -1 then begin
              (* Keep the unvisited watchers before stopping. *)
              while !i < n do
                ws.(!j) <- ws.(!i);
                incr i;
                incr j
              done;
              ok := conflict ()
            end
            else begin
              Obs.incr c_propagations;
              assign other
            end
          end
        end
      done;
      n_watches.(fl) <- !j
    done;
    !ok
  in
  (* Level 0: the empty clause and unit clauses are settled here; every
     longer clause watches its first two positions. *)
  let initial () =
    let ok = ref true in
    Array.iteri
      (fun ci c ->
        if !ok then
          match Array.length c with
          | 0 -> ok := conflict ()
          | 1 -> (
            match lit_value c.(0) with
            | 0 ->
              Obs.incr c_propagations;
              assign c.(0)
            | -1 -> ok := conflict ()
            | _ -> ())
          | _ ->
            watch c.(0) ci;
            watch c.(1) ci)
      clauses;
    !ok && propagate ()
  in
  (* Every variable below [from] is assigned: the previous decision was
     the lowest unassigned one, and propagation only adds assignments. *)
  let rec decide level from =
    let rec next v =
      if v >= t.nvars then -1 else if value.(v) = 0 then v else next (v + 1)
    in
    let v = next from in
    if v < 0 then raise (Found (Array.map (fun x -> x = 1) value))
    else begin
      Budget.tick budget;
      Obs.incr c_decisions;
      Obs.observe h_decision_level level;
      Obs.record_max c_max_level level;
      let mark = !trail_len in
      assign (pos v);
      if propagate () then decide (level + 1) (v + 1);
      undo_to mark;
      assign (neg v);
      if propagate () then decide (level + 1) (v + 1);
      undo_to mark
    end
  in
  (* [Fun.protect] keeps the Obs span balanced when [Budget.tick]
     aborts the search with [Budget_exceeded]. *)
  Fun.protect ~finally:Obs.leave (fun () ->
      try
        if initial () then decide 1 0;
        Unsat
      with Found model -> Sat model)

let is_satisfiable ?budget t =
  match solve ?budget t with Sat _ -> true | Unsat -> false
