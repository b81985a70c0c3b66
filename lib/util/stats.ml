type summary = {
  count : int;
  mean : float;
  std : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

type t = {
  mutable data : float array;
  mutable len : int;
  mutable sum : float;
  mutable sumsq : float;
  mutable sorted : bool;
}

let create () =
  { data = Array.make 64 0.0; len = 0; sum = 0.0; sumsq = 0.0; sorted = true }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  t.sum <- t.sum +. x;
  t.sumsq <- t.sumsq +. (x *. x);
  t.sorted <- false

let count t = t.len
let mean t = if t.len = 0 then 0.0 else t.sum /. float_of_int t.len

let variance t =
  if t.len < 2 then 0.0
  else begin
    let n = float_of_int t.len in
    let m = t.sum /. n in
    Float.max 0.0 ((t.sumsq /. n) -. (m *. m))
  end

let std t = sqrt (variance t)

let sort_in_place t =
  if not t.sorted then begin
    let live = Array.sub t.data 0 t.len in
    (* Merge sort under [Float.compare] rather than heap sort under
       polymorphic [compare]: both define the same order, so the result
       differs only if two samples compare equal with different bits
       (-0.0 and 0.0, NaN payloads), which latencies never do. *)
    Array.stable_sort Float.compare live;
    Array.blit live 0 t.data 0 t.len;
    t.sorted <- true
  end

let percentile_sorted data len q =
  if len = 0 then invalid_arg "Stats.percentile: empty";
  let q = Float.max 0.0 (Float.min 100.0 q) in
  let rank = q /. 100.0 *. float_of_int (len - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then data.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    data.(lo) +. (frac *. (data.(hi) -. data.(lo)))
  end

let percentile t q =
  sort_in_place t;
  percentile_sorted t.data t.len q

let summary t =
  sort_in_place t;
  if t.len = 0 then
    { count = 0; mean = 0.; std = 0.; min = 0.; max = 0.; p50 = 0.; p95 = 0.; p99 = 0. }
  else
    {
      count = t.len;
      mean = mean t;
      std = std t;
      min = t.data.(0);
      max = t.data.(t.len - 1);
      p50 = percentile_sorted t.data t.len 50.0;
      p95 = percentile_sorted t.data t.len 95.0;
      p99 = percentile_sorted t.data t.len 99.0;
    }

let to_array t = Array.sub t.data 0 t.len

let percentile_of arr q =
  let copy = Array.copy arr in
  Array.sort compare copy;
  percentile_sorted copy (Array.length copy) q

let ks_distance a b =
  if Array.length a = 0 || Array.length b = 0 then invalid_arg "Stats.ks_distance: empty";
  let a = Array.copy a and b = Array.copy b in
  Array.sort compare a;
  Array.sort compare b;
  let na = Array.length a and nb = Array.length b in
  let fa = float_of_int na and fb = float_of_int nb in
  (* Walk the merged value sequence; at each distinct value compare the two
     empirical CDFs after consuming all elements <= that value (ties must
     advance both sides together). *)
  let rec go i j best =
    if i >= na && j >= nb then best
    else begin
      let v =
        if i >= na then b.(j)
        else if j >= nb then a.(i)
        else Float.min a.(i) b.(j)
      in
      let rec eat arr n k = if k < n && arr.(k) <= v then eat arr n (k + 1) else k in
      let i = eat a na i and j = eat b nb j in
      let d = Float.abs ((float_of_int i /. fa) -. (float_of_int j /. fb)) in
      go i j (Float.max best d)
    end
  in
  go 0 0 0.0

let mape ~actual ~predicted =
  if Array.length actual <> Array.length predicted then
    invalid_arg "Stats.mape: length mismatch";
  let total = ref 0.0 and n = ref 0 in
  Array.iteri
    (fun i a ->
      if a <> 0.0 then begin
        total := !total +. (Float.abs (predicted.(i) -. a) /. Float.abs a);
        incr n
      end)
    actual;
  if !n = 0 then 0.0 else 100.0 *. !total /. float_of_int !n
