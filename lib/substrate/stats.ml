module Running = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable total : float;
  }

  let create () = { n = 0; mean = 0.0; m2 = 0.0; min = nan; max = nan; total = 0.0 }

  (* [@inline]: lets hot callers pass [x] straight from float registers —
     a non-inlined cross-module call would box the argument. *)
  let[@inline] add t x =
    t.n <- t.n + 1;
    t.total <- t.total +. x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if t.n = 1 then begin
      t.min <- x;
      t.max <- x
    end
    else begin
      if x < t.min then t.min <- x;
      if x > t.max then t.max <- x
    end

  let count t = t.n
  let mean t = t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
  let min t = t.min
  let max t = t.max
  let total t = t.total

  let merge a b =
    if a.n = 0 then { b with n = b.n }
    else if b.n = 0 then { a with n = a.n }
    else begin
      let n = a.n + b.n in
      let delta = b.mean -. a.mean in
      let mean = a.mean +. (delta *. float_of_int b.n /. float_of_int n) in
      let m2 =
        a.m2 +. b.m2
        +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. float_of_int n)
      in
      {
        n;
        mean;
        m2;
        min = Float.min a.min b.min;
        max = Float.max a.max b.max;
        total = a.total +. b.total;
      }
    end
end

module Sample = struct
  type t = { mutable data : float array; mutable len : int; mutable sorted : bool }

  let create () = { data = Array.make 64 0.0; len = 0; sorted = true }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1;
    t.sorted <- false

  let count t = t.len

  let ensure_sorted t =
    if not t.sorted then begin
      let live = Array.sub t.data 0 t.len in
      Array.sort compare live;
      Array.blit live 0 t.data 0 t.len;
      t.sorted <- true
    end

  let quantile t q =
    if t.len = 0 then invalid_arg "Stats.Sample.quantile: empty";
    if q < 0.0 || q > 1.0 then invalid_arg "Stats.Sample.quantile: q out of range";
    ensure_sorted t;
    if t.len = 1 then t.data.(0)
    else begin
      let pos = q *. float_of_int (t.len - 1) in
      let lo = int_of_float (Float.floor pos) in
      let hi = Stdlib.min (lo + 1) (t.len - 1) in
      let frac = pos -. float_of_int lo in
      t.data.(lo) +. (frac *. (t.data.(hi) -. t.data.(lo)))
    end

  let mean t =
    if t.len = 0 then nan
    else begin
      let acc = ref 0.0 in
      for i = 0 to t.len - 1 do
        acc := !acc +. t.data.(i)
      done;
      !acc /. float_of_int t.len
    end

  let values t =
    ensure_sorted t;
    Array.sub t.data 0 t.len
end

(* Average ranks with tie correction. *)
let ranks values =
  let n = Array.length values in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare values.(a) values.(b)) order;
  let result = Array.make n 0.0 in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && values.(order.(!j + 1)) = values.(order.(!i)) do
      incr j
    done;
    let avg_rank = float_of_int (!i + !j) /. 2.0 +. 1.0 in
    for k = !i to !j do
      result.(order.(k)) <- avg_rank
    done;
    i := !j + 1
  done;
  result

let pearson pairs =
  let n = List.length pairs in
  if n < 2 then invalid_arg "Stats.pearson: need >= 2 pairs";
  let nf = float_of_int n in
  let sx = List.fold_left (fun acc (x, _) -> acc +. x) 0.0 pairs in
  let sy = List.fold_left (fun acc (_, y) -> acc +. y) 0.0 pairs in
  let mx = sx /. nf and my = sy /. nf in
  let sxy, sxx, syy =
    List.fold_left
      (fun (sxy, sxx, syy) (x, y) ->
        let dx = x -. mx and dy = y -. my in
        (sxy +. (dx *. dy), sxx +. (dx *. dx), syy +. (dy *. dy)))
      (0.0, 0.0, 0.0) pairs
  in
  if sxx = 0.0 || syy = 0.0 then 0.0 else sxy /. sqrt (sxx *. syy)

let spearman pairs =
  let n = List.length pairs in
  if n < 2 then invalid_arg "Stats.spearman: need >= 2 pairs";
  let xs = Array.of_list (List.map fst pairs) in
  let ys = Array.of_list (List.map snd pairs) in
  let rx = ranks xs and ry = ranks ys in
  let rank_pairs = List.init n (fun i -> (rx.(i), ry.(i))) in
  pearson rank_pairs

let percent_change ~before ~after =
  if before = 0.0 then 0.0 else (after -. before) /. before *. 100.0

let geometric_mean values =
  if values = [] then invalid_arg "Stats.geometric_mean: empty";
  let log_sum = List.fold_left (fun acc v -> acc +. log v) 0.0 values in
  exp (log_sum /. float_of_int (List.length values))
