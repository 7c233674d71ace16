(** Incremental re-estimation of circuit leakage under netlist edits.

    The paper's §6 locality result — loading does not propagate meaningfully
    beyond one logic level — means an edit's leakage impact is confined to a
    small cone: the edited gate, the nets its pins touch, and the gates
    sharing those nets (plus, for logic-changing edits, the downstream cone
    whose values flip). A session wraps a netlist and a cached one-pass
    estimate ({!Leakage_core.Estimator} with [passes = 1]) and applies typed
    {!Edit.t}s by

    + re-simulating logic only through the affected output cone,
    + re-resolving characterization entries only for gates whose (kind,
      strength, library, input vector) key changed,
    + re-accumulating loading injections only on nets whose fanout pin
      currents changed, and
    + re-looking-up leakage only for gates touching those nets,

    maintaining circuit totals by subtract-old/add-new. Each edit therefore
    costs O(cone) instead of O(circuit), which is what turns the optimizers'
    candidate loops (dual-Vth, input-vector control, vector resampling) from
    O(gates × candidates) into O(cone × candidates).

    Totals drift by a few ulps per delta update; a periodic full refresh
    (every [refresh_every] edits) re-sums everything to bound the error.
    An undo log records the inverse of every applied edit so optimizers can
    speculate a candidate, read the totals, and revert — also in O(cone). *)

type t

type checkpoint
(** A position in the undo log (see {!checkpoint}/{!rollback}). *)

type stats = {
  edits : int;            (** edits applied (batched edits count each) *)
  undos : int;            (** edits reverted through the undo log *)
  refreshes : int;        (** full refreshes since creation *)
  logic_evals : int;      (** gates re-simulated / re-keyed *)
  entry_updates : int;    (** gates whose characterization entry changed *)
  net_updates : int;      (** nets whose loading injection changed *)
  leakage_lookups : int;  (** per-gate leakage table re-lookups *)
}
(** Work counters — [logic_evals / edits] is the mean logic-cone size and
    [leakage_lookups / edits] the mean loading-cone size. One propagation
    adds at most the gate count to each of [logic_evals] and
    [leakage_lookups]. *)

val create :
  ?refresh_every:int ->
  ?library_of_gate:(int -> Leakage_core.Library.t) ->
  Leakage_core.Library.t ->
  Leakage_circuit.Netlist.t ->
  Leakage_circuit.Logic.vector ->
  t
(** Open a session on a netlist under one input pattern; performs one full
    estimate up front. [refresh_every] (default 64, [0] disables) bounds
    float drift by fully re-summing after that many edits.
    [library_of_gate] seeds per-gate libraries as in
    {!Leakage_core.Estimator.estimate}; all libraries must share temperature
    and supply. *)

(** {2 Edits} *)

val apply : t -> Edit.t -> unit
(** Apply one edit and log its inverse. Raises [Invalid_argument] on a
    malformed edit (unknown gate, non-positive strength, arity-changing
    retype, library at a different corner, [Set_input] on a non-input
    net). *)

val apply_batch : t -> Edit.t list -> unit
(** Apply several edits with one propagation: the whole batch is validated
    before any edit is staged, every edit is staged, and one topological
    worklist drains their joint cone. Each gate is visited at most once, so
    a batch costs at most one estimate's gate visits however many edits
    overlap (e.g. flipping many input bits at once), and never more than
    applying the edits one at a time. The result equals applying the edits
    left to right up to float reassociation of the accumulated deltas. Each
    edit is still logged individually, so {!undo} reverts them one at a
    time in reverse order. *)

val set_vector : t -> Leakage_circuit.Logic.vector -> unit
(** One {!apply_batch} of [Set_input] edits moving the session to a new
    primary-input vector (only differing bits are touched). A move visits
    each gate of the union of the flipped inputs' cones once, so even a
    dense random move costs no more gate visits than a fresh estimate. *)

val undo : t -> unit
(** Revert the most recent logged edit. Raises [Invalid_argument] on an
    empty log. *)

val checkpoint : t -> checkpoint
(** Mark the current undo-log position. *)

val rollback : t -> checkpoint -> unit
(** Undo back to a checkpoint — the speculate-and-revert primitive:
    [let c = checkpoint s in apply s edit; ... read totals ...; rollback s c].
    Raises [Invalid_argument] if the checkpoint has already been undone
    past. *)

val undo_depth : t -> int
(** Number of undoable edits in the log. *)

(** {2 Reading the estimate} *)

val totals : t -> Leakage_spice.Leakage_report.components
(** Loading-aware circuit totals under the current state. *)

val baseline_totals : t -> Leakage_spice.Leakage_report.components
(** Sum of isolated nominal leakages (the traditional no-loading model). *)

val sigma :
  ?lin_tol:float ->
  sigmas:Leakage_device.Variation.sigmas ->
  t ->
  Leakage_core.Sensitivity.result
(** Closed-form variance propagation ([Sensitivity.analyze]) over the
    session's cached per-gate state. The cone machinery keeps the per-gate
    entries and component estimates current after every edit, so this costs
    only the σ assembly — O(gates · log gates) plus the moment sums — with
    no estimator pass and no DC solves.

    Like {!totals}, the inputs carry the session's accumulated float drift
    between refreshes; after {!refresh} the result is bit-identical to
    analyzing a fresh {!Leakage_core.Sensitivity.estimate_totals}. Flags are
    reported but never trigger an MC fallback here — check
    [Sensitivity.flagged] and fall back explicitly if needed. Die-level
    geometry sensitivities are taken from the session's base library;
    per-gate library overrides affect the per-gate rows only. *)

val gate_components : t -> int -> Leakage_spice.Leakage_report.components
(** Loading-aware leakage of one gate. *)

val pattern : t -> Leakage_circuit.Logic.vector
(** Current primary-input vector (copy). *)

val assignment : t -> Leakage_circuit.Simulate.assignment
(** Current logic value per net (copy). *)

val net_injection : t -> float array
(** Current signed loading current per net (copy). *)

(** {2 Session state} *)

val netlist : t -> Leakage_circuit.Netlist.t
(** The structural netlist the session was opened on (never mutated). *)

val current_netlist : t -> Leakage_circuit.Netlist.t
(** The netlist with all applied [Resize]/[Retype] edits materialized —
    feed it to a fresh {!Leakage_core.Estimator.estimate} (with
    {!library_of_gate}) to cross-check the session. *)

val library_of_gate : t -> int -> Leakage_core.Library.t
(** Current per-gate library (reflects [Relib] edits). *)

val refresh : t -> unit
(** Force a full recomputation (logic, entries, injections, totals) from the
    current state. Never changes semantics — only squashes accumulated float
    drift. The undo log survives. *)

val stats : t -> stats
