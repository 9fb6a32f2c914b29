(** Streaming statistics, quantiles, and rank correlation.

    The telemetry and the bench harness aggregate millions of simulated
    events; the accumulators here are O(1) per observation (Welford) except
    for exact quantiles, which retain samples. *)

(** {1 Streaming moments} *)

module Running : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val variance : t -> float
  (** Unbiased sample variance; 0 for fewer than two observations. *)

  val min : t -> float
  (** [nan] when empty. *)

  val max : t -> float
  (** [nan] when empty. *)

  val total : t -> float
  val merge : t -> t -> t
  (** Combine two accumulators (parallel Welford merge). *)
end

(** {1 Exact sample quantiles} *)

module Sample : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val quantile : t -> float -> float
  (** [quantile t q] with [q] in [\[0, 1\]], by linear interpolation between
      order statistics.  @raise Invalid_argument when empty. *)

  val mean : t -> float
  val values : t -> float array
  (** Sorted copy of the observations. *)
end

(** {1 Correlation} *)

val spearman : (float * float) list -> float
(** Spearman rank correlation coefficient of paired observations, with
    average ranks for ties.  @raise Invalid_argument on fewer than 2 pairs. *)

val pearson : (float * float) list -> float
(** Pearson linear correlation. @raise Invalid_argument on fewer than 2 pairs. *)

(** {1 Small helpers} *)

val percent_change : before:float -> after:float -> float
(** [(after - before) / before * 100.], or [0.] when [before = 0.]. *)

val geometric_mean : float list -> float
(** Geometric mean of positive values. @raise Invalid_argument when empty. *)
