(** Descriptive statistics and histograms for Monte-Carlo leakage analysis. *)

val mean : float array -> float
(** Arithmetic mean. Raises [Invalid_argument] on an empty array. *)

val variance : float array -> float
(** Unbiased sample variance (n-1 denominator); 0 for arrays of length < 2. *)

val std : float array -> float
(** Sample standard deviation, [sqrt (variance a)]. *)

val min_max : float array -> float * float
(** Smallest and largest element. Raises [Invalid_argument] on empty input. *)

val percentile : float array -> float -> float
(** [percentile a p] for [p] in [\[0,100\]], linear interpolation between
    order statistics. Does not modify [a]. *)

val median : float array -> float
(** [percentile a 50.]. *)

type summary = {
  n : int;
  mean : float;
  std : float;
  min : float;
  max : float;
  p05 : float;
  p50 : float;
  p95 : float;
}
(** One-look summary of a sample. *)

val summarize : float array -> summary

type histogram = {
  lo : float;           (** left edge of first bin *)
  hi : float;           (** right edge of last bin *)
  counts : int array;   (** occupancy per bin *)
}

val histogram : ?bins:int -> float array -> histogram
(** Equal-width histogram over the sample range (default 40 bins). Values
    exactly at [hi] land in the last bin. *)

val histogram_in : lo:float -> hi:float -> bins:int -> float array -> histogram
(** Histogram over a fixed range; out-of-range values are clamped into the
    first/last bin so two samples can share comparable axes. *)

val bin_centers : histogram -> float array
