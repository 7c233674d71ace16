(** Prometheus / OpenMetrics text exposition for {!Telemetry.Snapshot},
    and a strict parser of the same format.

    Rendering maps the snapshot's metric model onto the exposition
    grammar: counters gain the [_total] suffix, labeled families are
    grouped under one [# TYPE] line, and the power-of-two histograms
    become cumulative [_bucket{le="2^b"}] series (empty buckets elided,
    the [le="+Inf"] bucket and [_sum]/[_count] always present). Metric
    and label names are sanitized ([.] → [_]); label values are escaped
    per the format (backslash, double quote, newline).

    The parser exists so tests and the [@obs-check] CI gate validate
    scrapes with a real grammar instead of substring probes. It is
    strict: malformed TYPE lines, bad escapes, garbage after a value, or
    a missing trailing newline raise {!Parse_error}. *)

val render : Telemetry.Snapshot.t -> string
(** Exposition text, newline-terminated. Zero counters and empty
    histograms are elided (a family nobody hit is absent, matching what
    scrapers expect of a fresh process). *)

type sample = {
  name : string;  (** full sample name, suffixes included *)
  labels : (string * string) list;  (** in exposition order, unescaped *)
  value : float;
}

type family = {
  fam_name : string;  (** base name: suffix-stripped for typed families *)
  fam_type : string;  (** ["counter"], ["gauge"], ["histogram"], ["untyped"] *)
  samples : sample list;  (** in exposition order *)
}

exception Parse_error of int * string
(** Line number (1-based) and description. *)

val parse : string -> family list
(** Parse exposition text into families, in first-appearance order.
    Raises {!Parse_error} on any grammar violation. *)

val validate_histograms : family list -> string list
(** Structural checks on every histogram family: [le] strictly
    increasing, bucket counts cumulative (non-decreasing), [le="+Inf"]
    present and equal to [_count], [_sum] present — per label set.
    Returns human-readable violations; [[]] means all histograms are
    well-formed. *)

val find : family list -> string -> family option
