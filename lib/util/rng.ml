(* The SplitMix64 state lives in 8 raw bytes: an [int64] stored in a
   record field is boxed, which would allocate on every draw. The unsafe
   64-bit bytes primitives read and write the word unboxed, and [bits64]
   inlines into the draw functions, so [int] and [bool] allocate nothing.
   The byte order is the host's; only this module reads the state. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let bits64 t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix64 s

let split t = of_state (bits64 t)
let copy = Bytes.copy

let int t n =
  assert (n > 0);
  (* Keep 62 bits so the value fits OCaml's 63-bit signed int. *)
  let m = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  m mod n

let float t x =
  (* 53 random bits scaled to [0,1). *)
  let b = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  b /. 9007199254740992.0 *. x

let bool t = Int64.logand (bits64 t) 1L <> 0L
let range t lo hi = lo + int t (hi - lo)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
