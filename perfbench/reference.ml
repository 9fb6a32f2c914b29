(* Committed output digests.  Seed 1 is the default seed; seed 2 is held
   out: a change is developed against seed 1, and any claim it makes must
   also hold on seed 2, a seed not used while the change was written.
   A run with either seed fails its output check if its digest differs. *)

let default_seed = 1
let held_out_seed = 2

let digests =
  [
    (("simulate", 1), "1531e46940917e3895ed9aa62ce68f02");
    (("simulate", 2), "f8375382bd60abcb7081f3e23f9066f2");
    (("trace", 1), "232edf7bea00efafea7a7db33031a3ac");
    (("trace", 2), "a2a09bb923b060cecc2cc685b447dd8e");
    (("campaign", 1), "66572c2d2fea0ac45134adbf8a1882d0");
    (("campaign", 2), "679b4186d70c2b365b09cee1be9728c1");
  ]

let digest ~workload ~seed = List.assoc_opt (workload, seed) digests
