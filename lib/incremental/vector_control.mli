(** Input-vector control under loading (§6's observation that loading changes
    the minimum-leakage vector, which matters for IVC-based standby leakage
    reduction [9]).

    Searches the input space for minimum-total-leakage vectors using the
    loading-aware estimator and the traditional no-loading model, and reports
    whether loading changes the answer. Every search runs on one
    {!Incremental} session: consecutive candidate vectors differ in a few
    bits, so each evaluation costs only the changed input cones instead of a
    full estimate, and a move to an unrelated vector
    ({!Incremental.set_vector}) visits each gate at most once. *)

type search_result = {
  vector : Leakage_circuit.Logic.vector;
  total : float;  (** estimated total leakage, A *)
}

val exhaustive :
  ?use_loading:bool ->
  Leakage_core.Library.t -> Leakage_circuit.Netlist.t ->
  search_result
(** Exact minimum over all input vectors. Raises [Invalid_argument] for
    circuits with more than 20 primary inputs. [use_loading] defaults to
    true. *)

val random_search :
  ?use_loading:bool ->
  rng:Leakage_numeric.Rng.t ->
  samples:int ->
  Leakage_core.Library.t -> Leakage_circuit.Netlist.t ->
  search_result
(** Best of [samples] uniform random vectors. *)

val greedy_descent :
  ?use_loading:bool ->
  Leakage_core.Library.t -> Leakage_circuit.Netlist.t ->
  start:Leakage_circuit.Logic.vector ->
  search_result
(** Bit-flip hill descent from [start]: repeatedly applies the single-bit
    flip that most reduces leakage until no flip helps, for at most 64
    rounds. Each trial flip is a speculative [Set_input] edit that is
    rolled back through the session's undo log. *)

type comparison = {
  with_loading : search_result;
  without_loading : search_result;
  (** each evaluated under its own objective *)
  without_under_loading : float;
  (** the no-loading optimum re-evaluated with the loading-aware model: the
      leakage actually obtained when IVC ignores loading, A *)
  changed : bool;  (** do the two argmin vectors differ? *)
}

val compare_objectives :
  ?samples:int ->
  ?seed:int ->
  Leakage_core.Library.t -> Leakage_circuit.Netlist.t ->
  comparison
(** Minimum-vector search under both objectives (exhaustive when the input
    count allows, otherwise random + greedy with the given budget). *)
