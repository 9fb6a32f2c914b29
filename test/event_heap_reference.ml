(* Reference pending-free queue for the differential tests in
   test_eventloop.ml (against Calendar) and test_parallel.ml (against
   Binheap): the driver's float-keyed binary min-heap before the calendar
   queue replaced it.  Three unboxed int payload slots sit in parallel
   arrays.  The sift logic mirrors Binheap (strict [<] comparisons), so
   equal-key entries pop in the same order.  [drain_until t bound f]
   removes every entry with key [<= bound] in ascending order, calling [f]
   on each as it is removed; [f] must not push entries with keys
   [<= bound]. *)

type t = {
  mutable keys : float array;
  mutable a : int array;
  mutable b : int array;
  mutable c : int array;
  mutable len : int;
}

let create () =
  {
    keys = Array.make 16 0.0;
    a = Array.make 16 0;
    b = Array.make 16 0;
    c = Array.make 16 0;
    len = 0;
  }

let is_empty t = t.len = 0

let grow t =
  let capacity = Array.length t.keys in
  if t.len = capacity then begin
    let bigger src zero =
      let dst = Array.make (2 * capacity) zero in
      Array.blit src 0 dst 0 t.len;
      dst
    in
    t.keys <- bigger t.keys 0.0;
    t.a <- bigger t.a 0;
    t.b <- bigger t.b 0;
    t.c <- bigger t.c 0
  end

let swap t i j =
  let k = t.keys.(i) in
  t.keys.(i) <- t.keys.(j);
  t.keys.(j) <- k;
  let v = t.a.(i) in
  t.a.(i) <- t.a.(j);
  t.a.(j) <- v;
  let v = t.b.(i) in
  t.b.(i) <- t.b.(j);
  t.b.(j) <- v;
  let v = t.c.(i) in
  t.c.(i) <- t.c.(j);
  t.c.(j) <- v

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.keys.(i) < t.keys.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 in
  let right = left + 1 in
  let smallest = ref i in
  if left < t.len && t.keys.(left) < t.keys.(!smallest) then smallest := left;
  if right < t.len && t.keys.(right) < t.keys.(!smallest) then smallest := right;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t key ~a ~b ~c =
  grow t;
  let i = t.len in
  t.keys.(i) <- key;
  t.a.(i) <- a;
  t.b.(i) <- b;
  t.c.(i) <- c;
  t.len <- t.len + 1;
  sift_up t i

let remove_min t =
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.keys.(0) <- t.keys.(t.len);
    t.a.(0) <- t.a.(t.len);
    t.b.(0) <- t.b.(t.len);
    t.c.(0) <- t.c.(t.len);
    sift_down t 0
  end

let drain_until t bound f =
  while t.len > 0 && t.keys.(0) <= bound do
    let key = t.keys.(0) and a = t.a.(0) and b = t.b.(0) and c = t.c.(0) in
    remove_min t;
    f ~key ~a ~b ~c
  done
