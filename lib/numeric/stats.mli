(** Descriptive statistics and histograms for Monte-Carlo leakage analysis. *)

val mean : float array -> float
(** Arithmetic mean. Raises [Invalid_argument] on an empty array. *)

val variance : float array -> float
(** Unbiased sample variance (n-1 denominator); 0 for arrays of length < 2. *)

val std : float array -> float
(** Sample standard deviation, [sqrt (variance a)]. *)

val norm_cdf : float -> float
(** Standard normal CDF — the building block of the analytic variance
    propagation's exact Gaussian segment integrals. Evaluated through a
    Chebyshev-fitted erfc whose error is {e fractional} (below 1.2e-7), so
    the deep lower tail keeps relative accuracy arbitrarily far out. *)

val log_norm_cdf : float -> float
(** [log (norm_cdf z)], never overflowing to [-infinity] for finite [z]:
    the deep tail evaluates [-z²/2 - log √(2π) + log R(|z|)] directly.
    Lets callers carry Gaussian masses with huge exponential prefactors
    (steep-table moment segments) entirely in log space. *)

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
