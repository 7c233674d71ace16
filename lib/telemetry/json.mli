(** JSON: one value type, a strict reader, and the string escaper and
    number formatter every writer in this library shares.

    The reader accepts exactly RFC 8259: one value surrounded by optional
    whitespace; inside strings only the eight named escapes and [\uXXXX]
    (a surrogate pair combines into one code point, a lone surrogate is
    rejected) and no raw byte below 0x20; numbers are an optional minus,
    an integer part without leading zeros, an optional fraction with at
    least one digit and an optional exponent, so [+1], [01], [1.], [.5],
    [inf] and [nan] are all errors. Other bytes inside strings are kept as
    they are (no UTF-8 validation). Nesting deeper than 512 levels is
    rejected. Lookups go by exact key on the object they are given, never
    by a search through the text, so a key can neither match a prefix of
    another key nor be found in the wrong object. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in file order *)

exception Error of string
(** The one error of this module. The message names the byte offset of a
    parse error (["byte 4190: unterminated array"]), the missing key
    (["missing key \"traceEvents\""]), or the expected and actual type
    (["key \"gates\": expected a number, got a string"]). *)

val parse : string -> t
(** Parse a whole JSON text; trailing non-whitespace input is an error. *)

val read_file : string -> t
(** [parse] the contents of a file. Raises [Sys_error] when the file
    cannot be read. *)

val member : string -> t -> t
(** [member k v] is the value under key [k] of the object [v] (the first
    one if [k] repeats). Raises [Error] when [v] is not an object or has
    no key [k]. *)

(** Typed lookups: [num k v] is [member k v] as a float, and so on. Each
    raises [Error] naming [k] and both types when the value under [k] has
    the wrong type. *)

val num : string -> t -> float

val int : string -> t -> int
(** A number with no fractional part and magnitude at most 2{^53}. *)

val str : string -> t -> string
val bool : string -> t -> bool
val arr : string -> t -> t list

val escape : string -> string
(** The body of a JSON string literal for [s], without the quotes:
    quote, backslash, newline, carriage return and tab get their named
    escapes, other bytes below 0x20 become [\u00XX], and every other byte
    is copied. For any byte string [s],
    [parse ("\"" ^ escape s ^ "\"") = Str s]. *)

val number : float -> string
(** An integer-valued float below 1e15 in magnitude as its digits
    (["3"]), any other finite float as [%.6g], and [nan] or an infinity
    as [null], since JSON has no literal for them. *)
