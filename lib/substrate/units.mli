(** Byte and time unit constants and pretty-printers used across the
    simulator.  All sizes are in bytes and all times in nanoseconds unless a
    suffix says otherwise. *)

val kib : int
(** 1024 bytes. *)

val mib : int
(** 1024 KiB. *)

val gib : int
(** 1024 MiB. *)

val tcmalloc_page_size : int
(** The TCMalloc page: 8 KiB (two native x86 pages, per the paper Sec. 2.1). *)

val hugepage_size : int
(** x86 transparent hugepage: 2 MiB. *)

val pages_per_hugepage : int
(** [hugepage_size / tcmalloc_page_size] = 256. *)

val ms : float
(** One millisecond in nanoseconds. *)

val sec : float
(** One second in nanoseconds. *)

val minute : float
(** One minute in nanoseconds. *)

val hour : float
(** One hour in nanoseconds. *)

val day : float
(** One day in nanoseconds. *)

val pp_bytes : Format.formatter -> int -> unit
(** Render a byte count with a binary-unit suffix, e.g. ["1.5 MiB"]. *)

val pp_duration : Format.formatter -> float -> unit
(** Render a duration in ns with an adaptive unit, e.g. ["3.1 ns"], ["2 d"]. *)

val bytes_to_string : int -> string
(** [Format.asprintf "%a" pp_bytes]. *)

val duration_to_string : float -> string
(** [Format.asprintf "%a" pp_duration]. *)
