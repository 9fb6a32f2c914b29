(** A minimal growable vector (boxed elements).

    Used for unbounded-but-cold accumulators (heap-audit reports) that were
    previously reversed lists; amortized O(1) append, O(1) indexed read,
    and oldest-first iteration without a final [List.rev]. *)

type 'a t

val create : unit -> 'a t
val push : 'a t -> 'a -> unit
val fold : 'a t -> 'b -> ('b -> 'a -> 'b) -> 'b
val to_list : 'a t -> 'a list
