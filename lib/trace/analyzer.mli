(** One-pass streaming trace analysis.

    Computes, in a single pass over a {!Reader} and in memory proportional
    to the live set (never the trace length):

    - object-size CDFs by count and by bytes (the Fig. 7 views);
    - lifetime CDFs of freed objects, by count and by bytes (Fig. 8);
    - allocation inter-arrival statistics and rate;
    - the cross-CPU-free fraction (frees issued on a different CPU than
      the allocation — the transfer-cache traffic driver);
    - the live-bytes curve (bounded, stride-doubling samples) and its
      peak. *)

open Wsc_substrate

type report = {
  events : int;
  allocations : int;
  frees : int;
  advances : int;
  retires : int;
  duration_ns : float;
  allocated_bytes : float;
  freed_bytes : float;
  live_objects_at_end : int;
  live_bytes_at_end : int;
  peak_live_bytes : int;
  peak_live_at_ns : float;
  cross_cpu_frees : int;
  interarrival : Stats.Running.t;
      (** Simulated time between consecutive allocations. *)
  size_count : Histogram.t;  (** Object sizes, weighted by count (Fig. 7a). *)
  size_bytes : Histogram.t;  (** Object sizes, weighted by bytes (Fig. 7b). *)
  lifetime_count : Histogram.t;  (** Lifetimes of freed objects (Fig. 8a). *)
  lifetime_bytes : Histogram.t;  (** Lifetimes, byte-weighted (Fig. 8b). *)
  live_curve : (float * int) list;
      (** [(time_ns, live_bytes)] at bounded, evenly spaced points. *)
}

val scan : Reader.t -> report
(** Stream the reader (consuming it) into a report.  The live curve keeps
    at most 512 samples. *)

val scan_file : string -> report

val render : report -> string
(** The report as aligned ASCII tables: summary, size CDF, lifetime CDF,
    live-bytes curve. *)
