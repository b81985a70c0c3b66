(** Functional classes of instructions.

    Mirrors the categorisation Ditto derives when it clusters x86 iforms
    "by functionality (data movement, arithmetic/logic, control-flow,
    lock-prefixed, and repeat string operations), operands, and ALU usage"
    (§4.4.2). *)

type t =
  | Int_alu  (** add/sub/and/or/xor/cmp/test on GPRs *)
  | Int_mul
  | Int_div
  | Lea
  | Shift
  | Cmov
  | Float_add
  | Float_mul
  | Float_div
  | Simd_int
  | Simd_float
  | Load
  | Store
  | Branch_cond
  | Branch_uncond
  | Call
  | Ret
  | Crc  (** checksum-style single-port instructions (CRC32) *)
  | Lock_rmw  (** LOCK-prefixed read-modify-write *)
  | Rep_string  (** REP MOVS/STOS — cost scales with repeat count *)
  | Nop

val all : t list
val to_string : t -> string

val is_memory_read : t -> bool
(** Classes whose execution reads memory ([Load], [Lock_rmw], [Rep_string]). *)

val is_memory_write : t -> bool
val is_branch : t -> bool
val is_control : t -> bool
(** Branches plus call/ret. *)

(** Coarse operand category used in iform feature vectors. *)
type operand_kind = Op_gpr | Op_x87 | Op_xmm | Op_mem | Op_imm | Op_none

