(* Differential replay harness for incremental sessions.

   Replays edit batches through four implementations of the same semantics:

   (a) sequential [Incremental.apply_batch] (no pool), value-aware pruning
       on (the default),
   (b) parallel [apply_batch ~pool] at jobs ∈ {1, 2, 4, 8},
   (c) a from-scratch [Estimator.estimate] oracle on the session's current
       netlist/pattern/libraries,
   (d) sequential [apply_batch ~prune:false] — the structural (unpruned)
       partition,

   asserting exact (bit-identical) state equality between (a) and every (b),
   tolerance-bounded totals agreement between (a) and a per-edit [apply]
   walk, exact equality of every per-net/per-gate field between (a) and (d)
   with tolerance only on the two scalar accumulators (a different partition
   sums the same per-gate deltas in a different float association), and
   tolerance-bounded agreement with (c). On failure the harness
   shrinks the batch list to a minimal failing input (greedy delta
   debugging: drop whole batches, then single edits, while the failure
   reproduces) and reports it with {!Edit.pp}.

   The module is linked into every test executable of the (tests) stanza,
   so pools are created lazily on first use and shut down at exit. *)

module Params = Leakage_device.Params
module Logic = Leakage_circuit.Logic
module Gate = Leakage_circuit.Gate
module Netlist = Leakage_circuit.Netlist
module Report = Leakage_spice.Leakage_report
module Characterize = Leakage_core.Characterize
module Library = Leakage_core.Library
module Estimator = Leakage_core.Estimator
module Incremental = Leakage_incremental.Incremental
module Edit = Leakage_incremental.Edit
module Rng = Leakage_numeric.Rng
module Pool = Leakage_parallel.Pool

let device = Params.d25
let temp = 300.0

(* same coarse grid as the other incremental/parallel tests, so the
   characterization cache stays warm across cases *)
let coarse_grid = { Characterize.max_current = 3.0e-6; points = 5 }
let lib = Library.create ~grid:coarse_grid ~device ~temp ()

let hvt_lib =
  Library.create ~grid:coarse_grid
    ~device:(Leakage_incremental.Dual_vth.high_vth_device device)
    ~temp ~vdd:device.Params.vdd ()

let palette = [| 0.5; 1.0; 2.0 |]

let job_counts = [ 1; 2; 4; 8 ]

let pools =
  lazy
    (let ps = List.map (fun j -> Pool.create ~jobs:j ()) job_counts in
     at_exit (fun () -> List.iter Pool.shutdown ps);
     ps)

(* ------------------------------------------------------------ generators *)

(* Random DAG netlist (same shape as test_parallel's): 2-5 inputs, 4-16
   random 1/2-input gates over earlier nets, untouched inputs consumed,
   sinks marked as outputs. *)
let random_netlist rng =
  let b = Netlist.Builder.create "rand" in
  let n_inputs = 2 + Rng.int rng 3 in
  let inputs = Array.init n_inputs (fun _ -> Netlist.Builder.input b) in
  let nets = ref (Array.to_list inputs) in
  let used = Hashtbl.create 32 in
  let pick () = List.nth !nets (Rng.int rng (List.length !nets)) in
  let add_gate kind =
    let ins = Array.init (Gate.arity kind) (fun _ -> pick ()) in
    Array.iter (fun n -> Hashtbl.replace used n ()) ins;
    let out = Netlist.Builder.gate b kind ins in
    nets := out :: !nets
  in
  let n_gates = 4 + Rng.int rng 12 in
  for _ = 1 to n_gates do
    add_gate
      (match Rng.int rng 6 with
       | 0 -> Gate.Inv
       | 1 -> Gate.Buf
       | 2 -> Gate.Nand 2
       | 3 -> Gate.Nor 2
       | 4 -> Gate.And 2
       | _ -> Gate.Or 2)
  done;
  Array.iter
    (fun n ->
      if not (Hashtbl.mem used n) then begin
        Hashtbl.replace used n ();
        let out = Netlist.Builder.gate b Gate.Inv [| n |] in
        nets := out :: !nets
      end)
    inputs;
  List.iter
    (fun n ->
      if not (Hashtbl.mem used n) && not (Array.mem n inputs) then
        Netlist.Builder.mark_output b n)
    !nets;
  Netlist.Builder.finish b

let random_edit rng nl =
  match Rng.int rng 4 with
  | 0 | 1 -> Edit.random_resize ~strengths:palette rng nl
  | 2 -> Edit.random_set_input rng nl
  | _ ->
    let g = Rng.int rng (Netlist.gate_count nl) in
    (match Netlist.gate_arity nl g with
     | 1 -> Edit.Retype (g, if Rng.bool rng then Gate.Inv else Gate.Buf)
     | 2 -> Edit.Retype (g, if Rng.bool rng then Gate.Nand 2 else Gate.Nor 2)
     | _ -> Edit.Relib (g, if Rng.bool rng then hvt_lib else lib))

let random_batch rng nl size = List.init size (fun _ -> random_edit rng nl)

let random_pattern rng nl =
  Logic.random_vector rng (Array.length (Netlist.inputs nl))

(* ----------------------------------------------------------- fingerprint *)

(* Complete observable session state. Two sessions with equal fingerprints
   are indistinguishable through the read API (up to undo-log contents,
   which [depth] proxies). Float fields are compared with Stdlib.compare,
   i.e. exact equality — the parallel/sequential contract is bit-identity,
   not tolerance. *)
type fingerprint = {
  fp_pattern : string;
  fp_values : Logic.value array;
  fp_injection : float array;
  fp_gates : (string * float) array;  (* kind name, strength *)
  fp_per_gate : Report.components array;
  fp_totals : Report.components;
  fp_baseline : Report.components;
  fp_depth : int;
}

let fingerprint s =
  let nl = Incremental.current_netlist s in
  {
    fp_pattern = Logic.vector_to_string (Incremental.pattern s);
    fp_values = Incremental.assignment s;
    fp_injection = Incremental.net_injection s;
    fp_gates =
      Array.init (Netlist.gate_count nl) (fun g ->
          (Gate.name (Netlist.gate_kind nl g), Netlist.gate_strength nl g));
    fp_per_gate =
      Array.init (Netlist.gate_count nl) (Incremental.gate_components s);
    fp_totals = Incremental.totals s;
    fp_baseline = Incremental.baseline_totals s;
    fp_depth = Incremental.undo_depth s;
  }

(* first differing field, for failure messages *)
let fingerprint_diff a b =
  if Stdlib.compare a b = 0 then None
  else if a.fp_pattern <> b.fp_pattern then
    Some (Printf.sprintf "pattern %s vs %s" a.fp_pattern b.fp_pattern)
  else if Stdlib.compare a.fp_values b.fp_values <> 0 then Some "logic values"
  else if Stdlib.compare a.fp_gates b.fp_gates <> 0 then Some "gate kinds/strengths"
  else if Stdlib.compare a.fp_injection b.fp_injection <> 0 then
    Some "net injections"
  else if Stdlib.compare a.fp_per_gate b.fp_per_gate <> 0 then
    Some "per-gate components"
  else if Stdlib.compare a.fp_totals b.fp_totals <> 0 then
    Some
      (Printf.sprintf "totals %.17g vs %.17g" (Report.total a.fp_totals)
         (Report.total b.fp_totals))
  else if Stdlib.compare a.fp_baseline b.fp_baseline <> 0 then Some "baselines"
  else if a.fp_depth <> b.fp_depth then
    Some (Printf.sprintf "undo depth %d vs %d" a.fp_depth b.fp_depth)
  else Some "unknown field"

let rel a b = if b = 0.0 then Float.abs a else Float.abs (a -. b) /. Float.abs b

let components_close tol (a : Report.components) (b : Report.components) =
  rel a.Report.isub b.Report.isub <= tol
  && rel a.Report.igate b.Report.igate <= tol
  && rel a.Report.ibtbt b.Report.ibtbt <= tol

(* Pruned vs unpruned comparison: the two partitions drive identical
   gate-local updates (same values, entries, injections, per-gate
   components, bit for bit), but group them differently, so the scalar
   totals/baseline accumulators may differ in the last ulps of float
   association. Everything else is compared exactly. *)
let fingerprint_diff_assoc tol a b =
  if a.fp_pattern <> b.fp_pattern then
    Some (Printf.sprintf "pattern %s vs %s" a.fp_pattern b.fp_pattern)
  else if Stdlib.compare a.fp_values b.fp_values <> 0 then Some "logic values"
  else if Stdlib.compare a.fp_gates b.fp_gates <> 0 then Some "gate kinds/strengths"
  else if Stdlib.compare a.fp_injection b.fp_injection <> 0 then
    Some "net injections"
  else if Stdlib.compare a.fp_per_gate b.fp_per_gate <> 0 then
    Some "per-gate components"
  else if not (components_close tol a.fp_totals b.fp_totals) then
    Some
      (Printf.sprintf "totals %.17g vs %.17g beyond association tolerance"
         (Report.total a.fp_totals) (Report.total b.fp_totals))
  else if not (components_close tol a.fp_baseline b.fp_baseline) then
    Some "baselines beyond association tolerance"
  else if a.fp_depth <> b.fp_depth then
    Some (Printf.sprintf "undo depth %d vs %d" a.fp_depth b.fp_depth)
  else None

(* ---------------------------------------------------------------- replay *)

let pp_batches batches =
  String.concat "; "
    (List.map
       (fun batch ->
         "["
         ^ String.concat ", "
             (List.map (fun e -> Format.asprintf "%a" Edit.pp e) batch)
         ^ "]")
       batches)

(* Replay [batches] (each applied as one [apply_batch]) and cross-check the
   three implementations after every batch. [Error reason] on the first
   divergence. *)
let replay ?(oracle_tol = 1e-9) ?(edit_tol = 1e-12) nl pattern batches =
  let seq = Incremental.create lib nl pattern in
  let pooled =
    List.map2
      (fun jobs pool -> (jobs, pool, Incremental.create lib nl pattern))
      job_counts (Lazy.force pools)
  in
  let per_edit = Incremental.create lib nl pattern in
  let unpruned = Incremental.create lib nl pattern in
  let exception Diverged of string in
  try
    List.iteri
      (fun bi batch ->
        Incremental.apply_batch seq batch;
        let reference = fingerprint seq in
        List.iter
          (fun (jobs, pool, s) ->
            Incremental.apply_batch ~pool s batch;
            match fingerprint_diff reference (fingerprint s) with
            | None -> ()
            | Some what ->
              raise
                (Diverged
                   (Printf.sprintf
                      "batch %d: jobs=%d differs from sequential in %s" bi
                      jobs what)))
          pooled;
        Incremental.apply_batch ~prune:false unpruned batch;
        (match
           fingerprint_diff_assoc edit_tol reference (fingerprint unpruned)
         with
         | None -> ()
         | Some what ->
           raise
             (Diverged
                (Printf.sprintf
                   "batch %d: unpruned partition differs from pruned in %s"
                   bi what)));
        List.iter (Incremental.apply per_edit) batch;
        let d =
          rel
            (Report.total (Incremental.totals seq))
            (Report.total (Incremental.totals per_edit))
        in
        if d > edit_tol then
          raise
            (Diverged
               (Printf.sprintf
                  "batch %d: grouped totals differ from per-edit walk by \
                   %.3e rel (> %.0e)"
                  bi d edit_tol));
        let fresh =
          Estimator.estimate
            ~library_of_gate:(Incremental.library_of_gate seq)
            lib
            (Incremental.current_netlist seq)
            (Incremental.pattern seq)
        in
        let dt =
          rel
            (Report.total (Incremental.totals seq))
            (Report.total fresh.Estimator.totals)
        and db =
          rel
            (Report.total (Incremental.baseline_totals seq))
            (Report.total fresh.Estimator.baseline_totals)
        in
        if dt > oracle_tol || db > oracle_tol then
          raise
            (Diverged
               (Printf.sprintf
                  "batch %d: oracle off by %.3e (totals) / %.3e (baseline) \
                   rel (> %.0e)"
                  bi dt db oracle_tol)))
      batches;
    Ok ()
  with Diverged reason -> Error reason

(* ------------------------------------------------------------- shrinking *)

let drop_nth n xs = List.filteri (fun i _ -> i <> n) xs

(* Greedy one-at-a-time delta debugging: repeatedly drop any element whose
   removal keeps the replay failing, to a local minimum. Quadratic in the
   batch size, which is fine at test scale, and deterministic. *)
let shrink_list fails xs =
  let rec pass xs i =
    if i >= List.length xs then xs
    else
      let candidate = drop_nth i xs in
      if fails candidate then pass candidate i else pass xs (i + 1)
  in
  pass xs 0

let shrink nl pattern batches =
  let fails bs =
    bs <> [] && List.exists (fun b -> b <> []) bs
    && Result.is_error (replay nl pattern bs)
  in
  if not (fails batches) then batches
  else begin
    (* whole batches first, then edits inside each batch *)
    let batches = shrink_list fails batches in
    let rec per_batch acc = function
      | [] -> List.rev acc
      | b :: rest ->
        let b' =
          shrink_list (fun b' -> fails (List.rev_append acc (b' :: rest))) b
        in
        per_batch (b' :: acc) rest
    in
    let batches = per_batch [] batches in
    List.filter (fun b -> b <> []) batches
  end

(* ------------------------------------------------- finite differences *)

(* Finite-difference oracle for every closed-form derivative the analytic
   variance propagation relies on: jet-valued device sensitivities, table
   slopes/curvatures, die-scale log-responses. Shared by [test_device] and
   [test_sensitivity] so both suites validate derivatives through one
   implementation with one failure format. *)
module Fd = struct
  let central ~h f x = (f (x +. h) -. f (x -. h)) /. (2.0 *. h)

  let second ~h f x = (f (x +. h) -. (2.0 *. f x) +. f (x -. h)) /. (h *. h)

  (* d ln f / dx and its curvature — the λ/γ convention of the sensitivity
     layer (log-space derivatives of strictly positive responses) *)
  let log_slope ~h f x = central ~h (fun v -> log (f v)) x
  let log_curvature ~h f x = second ~h (fun v -> log (f v)) x

  (* |a − b| ≤ tol·max(|a|,|b|) + floor: relative agreement with an
     absolute floor for derivatives that are legitimately ~0, where the
     difference quotient is pure cancellation noise. *)
  let close ?(tol = 1e-4) ?(floor = 0.0) a b =
    Float.abs (a -. b) <= (tol *. Float.max (Float.abs a) (Float.abs b)) +. floor

  (* Compare an analytic first derivative of [f] at [x] against the central
     difference at step [h]; raise with both values on disagreement. *)
  let check_grad ?tol ?floor ~name ~h f x analytic =
    let fd = central ~h f x in
    if not (close ?tol ?floor fd analytic) then
      failwith
        (Printf.sprintf "%s: analytic %.10g vs finite-difference %.10g (h=%g)"
           name analytic fd h)

  let check_second ?tol ?floor ~name ~h f x analytic =
    let fd = second ~h f x in
    if not (close ?tol ?floor fd analytic) then
      failwith
        (Printf.sprintf
           "%s: analytic second %.10g vs finite-difference %.10g (h=%g)"
           name analytic fd h)
end

(* Replay and, on divergence, shrink and raise with the minimal failing
   input. Returns [true] so qcheck properties can end with [check ...]. *)
let check ?oracle_tol ?edit_tol ~name nl pattern batches =
  match replay ?oracle_tol ?edit_tol nl pattern batches with
  | Ok () -> true
  | Error reason ->
    let minimal = shrink nl pattern batches in
    let reason =
      match replay ?oracle_tol ?edit_tol nl pattern minimal with
      | Error r -> r
      | Ok () -> reason (* flaky shrink; report the original *)
    in
    failwith
      (Printf.sprintf
         "%s: differential replay diverged (%s) on %s; minimal failing \
          batches: %s"
         name reason
         (Logic.vector_to_string pattern)
         (pp_batches minimal))
