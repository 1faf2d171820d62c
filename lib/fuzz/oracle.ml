(* The differential-oracle catalogue. Each oracle re-derives one result
   through at least two independent implementations and fails on any
   disagreement; exceptions escaping a body are findings too (run
   converts them to Fail). *)

type outcome = Pass | Fail of string | Skip of string

type t = {
  name : string;
  describe : string;
  check : rng:Util.Rng.t -> budget:Budget.t -> Network.t -> outcome;
}

let failf fmt = Printf.ksprintf (fun s -> Fail s) fmt

(* A specimen large enough to make the BDD-backed oracles expensive is
   outside the fuzzing envelope (the generator never produces one, but
   user-supplied mutations might). *)
let too_large net = Network.num_nodes net > 80 || Array.length (Network.inputs net) > 12

(* ---------- spcf-equal ---------- *)

(* The Table-1 invariant: short-path ≡ path-based ≡ parallel short-path
   at jobs=4, node-based ⊇ exact, at a routine and a near-zero-slack
   target. The sequential results live in one BDD manager, so
   "identical function" is handle equality and containment is one
   band/bnot. The parallel run builds its own context, a different
   manager, so it is compared by the canonical exported DAG (postorder
   over the ROBDD), which must be byte-identical to the sequential
   one. *)
let spcf_equal ~rng:_ ~budget net =
  if too_large net then Skip "too large for SPCF cross-check"
  else begin
    let mc = Mapper.map net in
    let ctx = Spcf.Ctx.create ~budget mc in
    let man = ctx.Spcf.Ctx.man in
    let pctx = Spcf.Ctx.create ~budget mc in
    let check_theta theta =
      let target = Spcf.Ctx.target_of_theta ctx theta in
      let short = Spcf.Exact.short_path ctx ~target in
      let path = Spcf.Exact.path_based ctx ~target in
      let node = Spcf.Node_based.compute ctx ~target in
      let names r =
        String.concat "," (List.map (fun (n, _, _) -> n) r.Spcf.Ctx.outputs)
      in
      let against tag (r : Spcf.Ctx.result) =
        if names short <> names r then
          failf "theta=%.3f: critical outputs differ (short=[%s] %s=[%s])" theta
            (names short) tag (names r)
        else
          let mismatch =
            List.find_opt
              (fun ((_, _, a), (_, _, b)) -> a <> b)
              (List.combine short.Spcf.Ctx.outputs r.Spcf.Ctx.outputs)
          in
          match mismatch with
          | Some ((o, _, _), _) ->
            failf "theta=%.3f: SPCF of %s differs between short-path and %s" theta o tag
          | None -> Pass
      in
      let superset () =
        if names short <> names node then
          failf "theta=%.3f: critical outputs differ (short=[%s] node=[%s])" theta
            (names short) (names node)
        else
          let bad =
            List.find_opt
              (fun ((_, _, exact), (_, _, over)) ->
                Bdd.band man exact (Bdd.bnot man over) <> Bdd.bfalse)
              (List.combine short.Spcf.Ctx.outputs node.Spcf.Ctx.outputs)
          in
          match bad with
          | Some ((o, _, _), _) ->
            failf "theta=%.3f: node-based SPCF of %s is not a superset of the exact SPCF"
              theta o
          | None
            when Bdd.band man short.Spcf.Ctx.union (Bdd.bnot man node.Spcf.Ctx.union)
                 <> Bdd.bfalse ->
            failf "theta=%.3f: node-based union is not a superset" theta
          | None -> Pass
      in
      let against_parallel () =
        let r =
          Spcf.Parallel.short_path ~jobs:4 pctx
            ~target:(Spcf.Ctx.target_of_theta pctx theta)
        in
        if names short <> names r then
          failf "theta=%.3f: critical outputs differ (short=[%s] jobs4=[%s])" theta
            (names short) (names r)
        else begin
          let mismatch =
            List.find_opt
              (fun ((_, _, a), (_, _, b)) ->
                Spcf.Parallel.export man a <> Spcf.Parallel.export pctx.Spcf.Ctx.man b)
              (List.combine short.Spcf.Ctx.outputs r.Spcf.Ctx.outputs)
          in
          match mismatch with
          | Some ((o, _, _), _) ->
            failf "theta=%.3f: SPCF of %s differs between short-path and jobs=4" theta o
          | None -> Pass
        end
      in
      List.fold_left
        (fun acc r -> match acc with Pass -> r () | other -> other)
        Pass
        [
          (fun () -> against "path-based" path);
          (fun () -> against_parallel ());
          superset;
        ]
    in
    match check_theta 0.9 with Pass -> check_theta 0.995 | other -> other
  end

(* ---------- bdd-sim ---------- *)

(* Global BDDs vs bit-parallel simulation vs scalar evaluation,
   exhaustive over the input space (specimens have at most 8 inputs;
   12 is the hard cap). Both heavy sides run word-parallel: Bitsim packs
   62 patterns per word, and the BDD side answers the same 62-pattern
   block with one memoized DAG walk per signal ([Bdd.eval_vec]). The
   scalar [Network.eval] reference then cross-checks every pattern when
   the space is small, one pattern per block otherwise — the word
   comparison has already pinned bitsim = bdd on all of them. *)
let bdd_vs_sim ~rng:_ ~budget net =
  let n = Array.length (Network.inputs net) in
  if n > 12 then Skip "too many inputs for exhaustive comparison"
  else begin
    let man, funcs = Network.to_bdds ~budget net in
    let sim = Bitsim.prepare net in
    let nsig = Network.num_signals net in
    let npat = 1 lsl n in
    let result = ref Pass in
    let base = ref 0 in
    while !result = Pass && !base < npat do
      let lo = !base in
      let cnt = min 62 (npat - lo) in
      (* cnt = 62 wraps 1 lsl 62 to min_int; minus 1 is exactly 62 ones. *)
      let mask = (1 lsl cnt) - 1 in
      let pi_words =
        Array.init n (fun v ->
            let w = ref 0 in
            for b = 0 to cnt - 1 do
              if (lo + b) lsr v land 1 = 1 then w := !w lor (1 lsl b)
            done;
            !w)
      in
      let words = Bitsim.eval_word sim pi_words in
      let report s b =
        let env = Array.init n (fun v -> (lo + b) lsr v land 1 = 1) in
        failf "signal %s pattern %d: eval=%b bitsim=%b bdd=%b"
          (Network.name_of net s) (lo + b)
          (Network.eval net env).(s)
          (words.(s) lsr b land 1 = 1)
          (Bdd.eval man funcs.(s) env)
      in
      (* Word-parallel: all 62 patterns of every signal at once. *)
      for s = 0 to nsig - 1 do
        if !result = Pass then begin
          let diff = (Bdd.eval_vec man funcs.(s) pi_words lxor words.(s)) land mask in
          if diff <> 0 then begin
            let b = ref 0 in
            while diff lsr !b land 1 = 0 do
              incr b
            done;
            result := report s !b
          end
        end
      done;
      (* Scalar reference cross-check. *)
      let scalar_checks = if !result = Pass then if n <= 8 then cnt else 1 else 0 in
      for b = 0 to scalar_checks - 1 do
        if !result = Pass then begin
          let env = Array.init n (fun v -> (lo + b) lsr v land 1 = 1) in
          let vals = Network.eval net env in
          for s = 0 to nsig - 1 do
            if !result = Pass && (words.(s) lsr b land 1 = 1) <> vals.(s) then
              result := report s b
          done
        end
      done;
      base := lo + cnt
    done;
    !result
  end

(* ---------- tsim-sta ---------- *)

(* Event-driven timing simulation against the STA bounds: no signal
   changes after its structural arrival time, sampling at Δ captures
   the settled (zero-delay) values, and nothing settles after the
   latest arrival anywhere. (Δ itself only bounds the *outputs* —
   logic outside every output cone may legitimately settle later.) *)
let tsim_vs_sta ~rng ~budget:_ net =
  let mc = Mapper.map net in
  let sta = Sta.analyze ~model:Sta.Library mc in
  let delays = Sta.gate_delays Sta.Library mc in
  let delta = Sta.delta sta in
  let mnet = Mapped.network mc in
  let n = Array.length (Network.inputs mnet) in
  let nsig = Network.num_signals mnet in
  let latest = ref 0. in
  for s = 0 to nsig - 1 do
    latest := Float.max !latest (Sta.arrival sta s)
  done;
  let result = ref Pass in
  for _round = 1 to 6 do
    if !result = Pass then begin
      let from_ = Array.init n (fun _ -> Util.Rng.bool rng) in
      let to_ = Array.init n (fun _ -> Util.Rng.bool rng) in
      let r = Tsim.simulate mc ~delays ~from_ ~to_ ~clock:(delta +. Sta.eps) in
      if r.Tsim.settle > !latest +. Sta.eps then
        result := failf "settle %.4f after latest STA arrival %.4f" r.Tsim.settle !latest
      else begin
        let vals = Network.eval mnet to_ in
        for s = 0 to nsig - 1 do
          if !result = Pass then
            if r.Tsim.last_change.(s) > Sta.arrival sta s +. Sta.eps then
              result :=
                failf "signal %s changed at %.4f, after its STA arrival %.4f"
                  (Network.name_of mnet s) r.Tsim.last_change.(s) (Sta.arrival sta s)
            else if r.Tsim.final.(s) <> vals.(s) then
              result :=
                failf "signal %s settled to %b but evaluates to %b"
                  (Network.name_of mnet s) r.Tsim.final.(s) vals.(s)
        done;
        if !result = Pass then
          match Tsim.output_errors mc r with
          | [] -> ()
          | (o, _) :: _ ->
            result := failf "output %s mis-captured when sampling at Delta" o
      end
    end
  done;
  !result

(* ---------- pattern-arrival ---------- *)

(* The exact floating-mode reference semantics per pattern, and (when
   the input space is small) the floating delay as the max per-pattern
   arrival. *)
let pattern_arrival ~rng ~budget net =
  if too_large net then Skip "too large for pattern-arrival cross-check"
  else begin
    let mc = Mapper.map net in
    let ctx = Spcf.Ctx.create ~budget mc in
    let mnet = Mapped.network mc in
    let n = Array.length (Network.inputs mnet) in
    let nsig = Network.num_signals mnet in
    let exhaustive = n <= 6 in
    let patterns =
      if exhaustive then
        List.init (1 lsl n) (fun i -> Array.init n (fun v -> i lsr v land 1 = 1))
      else List.init 8 (fun _ -> Array.init n (fun _ -> Util.Rng.bool rng))
    in
    let result = ref Pass in
    let max_arrival = Array.make nsig 0 in
    List.iter
      (fun pat ->
        if !result = Pass then begin
          let values, arrivals = Spcf.Exact.pattern_arrivals ctx pat in
          let vals = Network.eval mnet pat in
          for s = 0 to nsig - 1 do
            max_arrival.(s) <- max max_arrival.(s) arrivals.(s);
            if !result = Pass then
              if values.(s) <> vals.(s) then
                result :=
                  failf "signal %s: pattern value %b vs evaluation %b"
                    (Network.name_of mnet s) values.(s) vals.(s)
              else if arrivals.(s) > ctx.Spcf.Ctx.arrival_units.(s) then
                result :=
                  failf "signal %s: floating arrival %d exceeds structural arrival %d"
                    (Network.name_of mnet s) arrivals.(s)
                    ctx.Spcf.Ctx.arrival_units.(s)
          done
        end)
      patterns;
    if !result = Pass && exhaustive then
      Array.iter
        (fun (o, s) ->
          if !result = Pass then begin
            let fd = Spcf.Ctx.units_of_delay (Spcf.Exact.floating_delay ctx s) in
            if fd <> max_arrival.(s) then
              result :=
                failf "output %s: floating delay %d vs max pattern arrival %d" o fd
                  max_arrival.(s)
          end)
        (Network.outputs mnet);
    !result
  end

(* ---------- masking ---------- *)

(* End-to-end synthesis: one Verify.check decides equivalence of the
   masked circuit and the paper's Σ ⊆ e ⊆ (ỹ = y) interval; the first
   mux-insertion diagnostic or finding fails the specimen (the slack
   margin is left out: it is a quality target rather than an invariant
   on adversarial specimens). *)
let masking ~rng:_ ~budget net =
  if too_large net then Skip "too large for synthesis cross-check"
  else begin
    (* The remaining budget is handed to the synthesis ladder as a spec:
       under pressure the oracle exercises (and still verifies) the
       degraded tiers — they must be sound too. *)
    let options =
      { Masking.Synthesis.default_options with budget = Budget.spec_of budget }
    in
    let m = Masking.Synthesis.synthesize ~options net in
    let r = Masking.Verify.check ~power_rounds:8 m in
    match
      Analysis.Diag.errors
        (Analysis.Contract.of_findings m r.Masking.Verify.findings)
    with
    | [] -> Pass
    | d :: _ -> Fail (Analysis.Diag.to_string d)
  end

(* ---------- blif-roundtrip ---------- *)

(* parse ∘ print preserves the function, and printing reaches a
   fixpoint after one round (the first print may introduce pass-through
   nodes for renamed outputs and drop dead cones). *)
let blif_roundtrip ~rng:_ ~budget:_ net =
  let s1 = Blif.to_string ~model:"fuzz" net in
  let n2 =
    try Blif.parse s1
    with Blif.Parse_error msg ->
      raise (Failure (Printf.sprintf "printed netlist does not re-parse: %s" msg))
  in
  if not (Network.equivalent net n2) then
    Fail "parse(print(net)) is not equivalent to net"
  else begin
    let s2 = Blif.to_string ~model:"fuzz" n2 in
    let n3 = Blif.parse s2 in
    if not (Network.equivalent n2 n3) then
      Fail "second parse/print round changes the function"
    else if Blif.to_string ~model:"fuzz" n3 <> s2 then
      Fail "printing does not reach a fixpoint after one round"
    else Pass
  end

(* ---------- sens-sim ---------- *)

(* Sensitization verdicts against exhaustive bit-parallel simulation.
   The analysis proves them with BDDs and witnesses them with DPLL;
   here a third engine re-derives the static sensitization condition
   per pattern: every signal word comes from [Bitsim], and the per-gate
   Boolean difference is evaluated directly over the SOP cover with the
   on-path pins forced to all-ones / all-zeros words. A [False] path
   must be dead on all 2^n patterns; a [True] path's witness must
   sensitize it. [Unknown] is exempt by construction — it claims
   nothing. *)
let sens_vs_sim ~rng:_ ~budget net =
  let n = Array.length (Network.inputs net) in
  if n > 14 then Skip "too many inputs for exhaustive sensitization check"
  else if Network.num_nodes net > 120 then
    Skip "too large for sensitization check"
  else begin
    let mc = Mapper.map net in
    let report = Sensitization.analyze ~band:0.35 ~budget mc in
    let paths = report.Sensitization.paths in
    if List.length paths > 256 then Skip "too many near-critical paths"
    else begin
      let mnet = Mapped.network mc in
      let sim = Bitsim.prepare mnet in
      (* SOP evaluation over 62-pattern words, independent of the BDD
         and DPLL engines (and of [Logic2.Cover.eval]). *)
      let cover_word cover fanin_words =
        List.fold_left
          (fun acc cube ->
            acc
            lor List.fold_left
                  (fun w (v, phase) ->
                    w land (if phase then fanin_words.(v) else lnot fanin_words.(v)))
                  (-1) (Logic2.Cube.literals cube))
          0 (Logic2.Cover.cubes cover)
      in
      (* The sensitization condition of [path] on one 62-pattern block:
         AND over its gates of f[x:=1] xor f[x:=0], side inputs at
         their simulated values. *)
      let cond_word sigs words =
        let w = ref (-1) in
        for i = 1 to Array.length sigs - 1 do
          let g = sigs.(i) and x = sigs.(i - 1) in
          match Network.node_of mnet g with
          | None -> ()
          | Some nd ->
            let sub c =
              Array.map
                (fun f -> if f = x then c else words.(f))
                nd.Network.fanins
            in
            w :=
              !w
              land (cover_word nd.Network.func (sub (-1))
                   lxor cover_word nd.Network.func (sub 0))
        done;
        !w
      in
      let pi_words_of ~lo ~cnt =
        Array.init n (fun v ->
            let w = ref 0 in
            for b = 0 to cnt - 1 do
              if (lo + b) lsr v land 1 = 1 then w := !w lor (1 lsl b)
            done;
            !w)
      in
      let npat = 1 lsl n in
      let check c =
        let sigs = c.Sensitization.path.Paths.signals in
        let name () = Paths.to_string mnet c.Sensitization.path in
        match c.Sensitization.verdict with
        | Sensitization.Unknown _ -> Pass
        | Sensitization.True w ->
          (* One-block evaluation at the witness pattern. *)
          let pi_words = Array.init n (fun v -> if w.(v) then 1 else 0) in
          let words = Bitsim.eval_word sim pi_words in
          if cond_word sigs words land 1 = 1 then Pass
          else failf "witness does not sensitize path %s" (name ())
        | Sensitization.False ->
          let result = ref Pass in
          let base = ref 0 in
          while !result = Pass && !base < npat do
            let lo = !base in
            let cnt = min 62 (npat - lo) in
            let mask = (1 lsl cnt) - 1 in
            let words = Bitsim.eval_word sim (pi_words_of ~lo ~cnt) in
            let hit = cond_word sigs words land mask in
            if hit <> 0 then begin
              let b = ref 0 in
              while hit lsr !b land 1 = 0 do
                incr b
              done;
              result :=
                failf "pattern %d sensitizes path %s declared False" (lo + !b)
                  (name ())
            end;
            base := lo + cnt
          done;
          !result
      in
      List.fold_left
        (fun acc c -> match acc with Pass -> check c | other -> other)
        Pass paths
    end
  end

(* ---------- eco-equal ---------- *)

(* Full recompute vs incremental recompute after a random edit
   sequence, across jobs ∈ {1, 2, 4, 8}: the canonical rendering
   (SPCF postorder DAGs, masking covers, verdict kinds, summaries)
   must be byte-identical. θ = 0.5 keeps several outputs critical so
   jobs > 1 actually fans out; the sensitization band exercises the
   verdict-reuse path too. *)
let eco_theta = 0.5
let eco_band = 0.35

let eco_edits ~rng net =
  match Eco.design_of_mapped (Mapper.map net) with
  | exception Invalid_argument _ -> None
  | d -> (
    let count = 1 + Util.Rng.int rng 6 in
    match Eco_gen.edits ~rng ~count d with [] -> None | edits -> Some edits)

(* Budget-sound [Unknown] verdicts are exempt from the comparison: the
   incremental path may legally keep an [Unknown] a fresh run would
   decide (and vice versa), since the two runs tick the budget
   differently. *)
let has_unknown t =
  match t.Eco.sens with
  | None -> false
  | Some r ->
    List.exists
      (fun c ->
        match c.Sensitization.verdict with Sensitization.Unknown _ -> true | _ -> false)
      r.Sensitization.paths

let first_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i = function
    | x :: xs, y :: ys -> if x <> y then (i, x, y) else go (i + 1) (xs, ys)
    | x :: _, [] -> (i, x, "<missing>")
    | [], y :: _ -> (i, "<missing>", y)
    | [], [] -> (i, "<equal>", "<equal>")
  in
  go 1 (la, lb)

let eco_replay ~budget net edits =
  let d = Eco.design_of_mapped (Mapper.map net) in
  let base = Eco.snapshot ~theta:eco_theta ~band:eco_band ~budget d in
  let d', _, _ = Eco.apply_all d edits in
  let full = Eco.snapshot ~theta:eco_theta ~band:eco_band ~budget d' in
  if has_unknown base || has_unknown full then Skip "unknown verdicts under budget"
  else begin
    let reference = Eco.canonical full in
    let rec loop = function
      | [] -> Pass
      | jobs :: rest ->
        let incr = Eco.recompute ~jobs base edits in
        if has_unknown incr then
          Skip (Printf.sprintf "unknown verdicts at jobs=%d" jobs)
        else begin
          let got = Eco.canonical incr in
          if got <> reference then begin
            let line, want, have = first_diff reference got in
            failf
              "jobs=%d: incremental diverges from full recompute after %d edits \
               (canonical line %d: full %S vs incremental %S)"
              jobs (List.length edits) line want have
          end
          else loop rest
        end
    in
    loop [ 1; 2; 4; 8 ]
  end

let eco_equal ~rng ~budget net =
  if Network.num_nodes net > 60 || Array.length (Network.inputs net) > 12 then
    Skip "too large for ECO cross-check"
  else
    match eco_edits ~rng net with
    | None -> Skip "no feasible edit sequence"
    | Some edits -> eco_replay ~budget net edits

(* ---------- catalogue ---------- *)

let all =
  [
    {
      name = "spcf-equal";
      describe =
        "short-path = path-based = parallel SPCF; node-based is a superset (Table 1)";
      check = spcf_equal;
    };
    {
      name = "bdd-sim";
      describe =
        "word-parallel BDD evaluation vs bit-parallel simulation vs scalar \
         evaluation, exhaustive";
      check = bdd_vs_sim;
    };
    {
      name = "tsim-sta";
      describe = "event-driven timing simulation within STA bounds; Delta-sampling safe";
      check = tsim_vs_sta;
    };
    {
      name = "pattern-arrival";
      describe = "floating-mode per-pattern arrivals vs structural bounds and evaluation";
      check = pattern_arrival;
    };
    {
      name = "masking";
      describe = "synthesized masker: equivalence, sigma <= e <= (ytilde = y), contract lints";
      check = masking;
    };
    {
      name = "blif-roundtrip";
      describe = "BLIF parse/print round-trip preserves the function; printing is a fixpoint";
      check = blif_roundtrip;
    };
    {
      name = "sens-sim";
      describe =
        "sensitization verdicts vs exhaustive bit-parallel simulation (True \
         witnesses sensitize; False paths dead on all patterns)";
      check = sens_vs_sim;
    };
    {
      name = "eco-equal";
      describe =
        "incremental ECO recompute = full recompute after random edit sequences, \
         byte-identical canonical form across jobs in {1,2,4,8}";
      check = eco_equal;
    };
  ]

let names = List.map (fun o -> o.name) all
let find name = List.find_opt (fun o -> o.name = name) all

let run o ~rng ?(budget = Budget.unlimited) net =
  try o.check ~rng ~budget net with
  | Budget.Budget_exceeded r ->
    (* Running out of budget on a specimen is not a finding: the check
       simply did not complete. *)
    Skip (Printf.sprintf "budget exhausted (%s)" (Budget.reason_to_string r))
  | e -> Fail (Printf.sprintf "uncaught exception: %s" (Printexc.to_string e))
