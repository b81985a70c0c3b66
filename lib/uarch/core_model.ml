open Ditto_isa

(* The pipeline's float state lives in its own all-float record, which
   OCaml stores flat: updates are raw double stores, where the same fields
   in the mixed record [t] would box a fresh float on every write (see
   [Counters.slots]). [start], [issue_after] and [done_t] carry one
   instruction's timestamps into and out of [mshr_admit] and
   [exec_rep_string], so those calls neither box arguments nor return
   boxed results. *)
type clock = {
  mutable next_issue : float;
  mutable fetch_avail : float;
  mutable resteer_until : float;
  mutable max_done : float;
  mutable last_lock_done : float;
  mutable width : float; (* issue width scaled by [set_width_factor] *)
  mutable start : float;
  mutable issue_after : float;
  mutable done_t : float;
}

(* [issue_inc.(u)] is [float_of_int u /. width] for every uop count
   [u < inc_uops], which covers the whole [Iform.catalog]: the
   issue-cursor advance, precomputed with the very same division whenever
   the width changes. Only iforms built outside the catalog divide. *)
let inc_uops = 1 + Array.fold_left (fun m f -> Int.max m f.Iform.uops) 0 Iform.catalog

type t = {
  mem : Memory.t;
  plat : Platform.t;
  core : int;
  bp : Branch_pred.t;
  reg_ready : float array;
  port_free : float array;
  rob : float array;
  mutable rob_pos : int;
  mshr : float array;
  mutable last_fetch_line : int;
  clock : clock;
  issue_inc : float array;
  (* Whether any block executed since the last [reset]; untouched cores
     skip the (large) predictor/ROB array fills on reset. *)
  mutable used : bool;
}

let set_width t factor =
  let c = t.clock in
  c.width <- float_of_int t.plat.Platform.issue_width *. factor;
  for u = 0 to inc_uops - 1 do
    Array.unsafe_set t.issue_inc u (float_of_int u /. c.width)
  done

let create mem ~core =
  let plat = Memory.platform mem in
  let t =
    {
      mem;
      plat;
      core;
      bp =
        Branch_pred.create ~entries:plat.Platform.predictor_entries
          ~btb_entries:plat.Platform.btb_entries ();
      reg_ready = Array.make Block.num_regs 0.0;
      port_free = Array.make Iform.port_count 0.0;
      rob = Array.make plat.Platform.rob_size 0.0;
      rob_pos = 0;
      mshr = Array.make 10 0.0;
      last_fetch_line = -1;
      clock =
        {
          next_issue = 0.0;
          fetch_avail = 0.0;
          resteer_until = 0.0;
          max_done = 0.0;
          last_lock_done = 0.0;
          width = 0.0;
          start = 0.0;
          issue_after = 0.0;
          done_t = 0.0;
        };
      issue_inc = Array.make inc_uops 0.0;
      used = false;
    }
  in
  set_width t 1.0;
  t

(* Restore the pristine post-[create] state. Kept bit-identical to a fresh
   core: every mutable field and array returns to its initial value, so a
   recycled core (see [Ditto_app.Machine]) measures exactly like a new one.
   [start], [issue_after] and [done_t] are written before every read, so
   their stale values are never observed. *)
let reset t =
  if t.used then begin
    Array.fill t.reg_ready 0 (Array.length t.reg_ready) 0.0;
    Array.fill t.port_free 0 (Array.length t.port_free) 0.0;
    Array.fill t.rob 0 (Array.length t.rob) 0.0;
    Array.fill t.mshr 0 (Array.length t.mshr) 0.0;
    Branch_pred.flush t.bp;
    t.used <- false
  end;
  t.rob_pos <- 0;
  let c = t.clock in
  c.next_issue <- 0.0;
  c.fetch_avail <- 0.0;
  c.resteer_until <- 0.0;
  c.max_done <- 0.0;
  t.last_fetch_line <- -1;
  c.last_lock_done <- 0.0;
  set_width t 1.0

let counters t = Memory.counters t.mem t.core
let platform t = t.plat
let set_width_factor t f = set_width t (Float.max 0.1 f)

(* Branchy float max/min for the hot loop: [Stdlib.Float.max] handles NaN
   and signed zeros (via [signbit]) that simulated timestamps — finite,
   non-negative, never produced as [-0.] — cannot exhibit, so these are
   value-identical here and compile to a compare and a move. *)
let[@inline] fmax (a : float) (b : float) = if a > b then a else b
let[@inline] fmin (a : float) (b : float) = if a < b then a else b
let[@inline] imax (a : int) (b : int) = if a > b then a else b
let now t = fmax t.clock.next_issue t.clock.max_done
let drain t = t.clock.next_issue <- now t

(* Ports of each 8-bit port mask in ascending order, at
   [port_list.(mask * 8 + i)] for [i < port_n.(mask)]. Mask 0 lists port 0,
   where an instruction with no ports issues. *)
let port_list, port_n =
  let list = Array.make (256 * 8) 0 and n = Array.make 256 1 in
  for mask = 1 to 255 do
    let k = ref 0 in
    for p = 0 to Iform.port_count - 1 do
      if mask land (1 lsl p) <> 0 then begin
        list.((mask * 8) + !k) <- p;
        incr k
      end
    done;
    n.(mask) <- !k
  done;
  (list, n)

(* The earliest-free port of [mask]; ties go to the lowest port (strict
   [<] over ports in ascending order). The comparison is taken as a 0/1
   int and folded into [best] arithmetically: which port wins is
   data-dependent, so as a branch it mispredicts. *)
let choose_port (port_free : float array) mask =
  let mask = mask land 0xff in
  let base = mask * 8 in
  let best = ref (Array.unsafe_get port_list base) in
  for i = 1 to Array.unsafe_get port_n mask - 1 do
    let p = Array.unsafe_get port_list (base + i) in
    let earlier =
      Bool.to_int (Array.unsafe_get port_free p < Array.unsafe_get port_free !best)
    in
    best := !best + (earlier * (p - !best))
  done;
  !best

(* Off-core misses contend for a finite set of miss-status registers,
   bounding memory-level parallelism. Delays [clock.start] until an MSHR
   is free and holds that MSHR for [latency] cycles. *)
let mshr_admit t latency =
  let c = t.clock in
  let best = ref 0 and best_t = ref infinity in
  for i = 0 to Array.length t.mshr - 1 do
    if Array.unsafe_get t.mshr i < !best_t then begin
      best_t := Array.unsafe_get t.mshr i;
      best := i
    end
  done;
  let start = fmax c.start !best_t in
  Array.unsafe_set t.mshr !best (start +. float_of_int latency);
  c.start <- start

(* A string instruction starting at [clock.start]: one read and one write
   per line, two uops each. Leaves its issue cursor and completion time in
   [clock.issue_after] and [clock.done_t]. *)
let exec_rep_string t addr shared ~write_only ~count =
  let c = t.clock in
  let ctr = Memory.counters t.mem t.core in
  let cs = ctr.Counters.s in
  let chunks = imax 1 (count / Cache.line_bytes) in
  let step = Array.unsafe_get t.issue_inc 2 in
  let issue = ref c.start and done_t = ref c.start in
  for i = 0 to chunks - 1 do
    let a = addr + (Cache.line_bytes * i) in
    let rl =
      if write_only then 1
      else Memory.access_data t.mem ~core:t.core ~addr:a ~write:false ~shared
    in
    ignore (Memory.access_data t.mem ~core:t.core ~addr:(a + 0x40000) ~write:true ~shared:false);
    done_t := fmax !done_t (!issue +. float_of_int rl);
    issue := !issue +. step;
    cs.Counters.retiring <- cs.Counters.retiring +. 2.0;
    ctr.Counters.uops <- ctr.Counters.uops + 2
  done;
  c.issue_after <- !issue;
  c.done_t <- !done_t

let exec_block t ~rng (block : Block.t) ~iterations =
  t.used <- true;
  let c = t.clock in
  let width = c.width in
  let plat = t.plat in
  let ctr = Memory.counters t.mem t.core in
  let cs = ctr.Counters.s in
  let rob_len = Array.length t.rob in
  let ntemps = Array.length block.Block.temps in
  let before = now t in
  for _iteration = 0 to iterations - 1 do
    for k = 0 to ntemps - 1 do
      let temp = Array.unsafe_get block.Block.temps k in
      let iform = temp.Block.iform in
      let pc = Array.unsafe_get block.Block.addrs k in
      let base = c.next_issue in
      (* Instruction fetch: one i-cache access per new line. *)
      let line = pc land lnot (Cache.line_bytes - 1) in
      if line <> t.last_fetch_line then begin
        t.last_fetch_line <- line;
        let bubble = Memory.access_inst t.mem ~core:t.core ~addr:pc in
        if bubble > 0 then c.fetch_avail <- fmax c.fetch_avail base +. float_of_int bubble
      end;
      let f = fmax base c.fetch_avail in
      (* Attribute the fetch gap: resteer shadow counts as bad speculation. *)
      let gap = f -. base in
      if gap > 0.0 then begin
        let bad = fmax 0.0 (fmin f c.resteer_until -. base) in
        cs.Counters.bad_spec <- cs.Counters.bad_spec +. (bad *. width);
        cs.Counters.frontend <- cs.Counters.frontend +. ((gap -. bad) *. width)
      end;
      (* Register dependencies. *)
      let ready = ref f in
      let srcs = temp.Block.srcs in
      for s = 0 to Array.length srcs - 1 do
        let r = Array.unsafe_get srcs s in
        (* Registers are validated at template construction (< num_regs). *)
        if r >= 0 && Array.unsafe_get t.reg_ready r > !ready then
          ready := Array.unsafe_get t.reg_ready r
      done;
      (* ROB backpressure: cannot dispatch past the window. *)
      let rob_head = Array.unsafe_get t.rob t.rob_pos in
      if rob_head > !ready then ready := rob_head;
      (* Execution port. *)
      let port = choose_port t.port_free iform.Iform.ports in
      if Array.unsafe_get t.port_free port > !ready then
        ready := Array.unsafe_get t.port_free port;
      let start = !ready in
      cs.Counters.backend <- cs.Counters.backend +. ((start -. f) *. width);
      let klass = iform.Iform.klass in
      ctr.Counters.insts <- ctr.Counters.insts + 1;
      let issue_after = ref start and done_t = ref start in
      (match klass with
      | Iclass.Rep_string ->
          let packed = Block.resolve_mem_packed ~rng temp in
          let addr = packed asr 1 and shared = packed land 1 = 1 in
          let addr = if addr < 0 then 0 else addr in
          let write_only = Array.length temp.Block.srcs = 0 in
          c.start <- start;
          exec_rep_string t addr shared ~write_only
            ~count:(imax Cache.line_bytes temp.Block.rep_count);
          issue_after := c.issue_after;
          done_t := c.done_t
      | _ ->
          let lock = match klass with Iclass.Lock_rmw -> true | _ -> false in
          (* Memory operand. *)
          let mem_lat =
            match temp.Block.mem with
            | Block.No_mem -> 0
            | _ ->
                let packed = Block.resolve_mem_packed ~rng temp in
                let addr = packed asr 1 and shared = packed land 1 = 1 in
                (* Stores alone write without reading; [Lock_rmw] does both. *)
                let write = match klass with Iclass.Store -> true | _ -> false in
                let lat = Memory.access_data t.mem ~core:t.core ~addr ~write ~shared in
                if lock then
                  ignore (Memory.access_data t.mem ~core:t.core ~addr ~write:true ~shared);
                if write then 0 (* store latency hidden by the store buffer *) else lat
          in
          let start =
            if mem_lat > plat.Platform.lat_l2 then begin
              c.start <- start;
              mshr_admit t mem_lat;
              c.start
            end
            else start
          in
          let start = if lock then fmax start c.last_lock_done else start in
          let exec_lat = float_of_int (iform.Iform.latency + mem_lat) in
          let d = start +. fmax 1.0 exec_lat in
          if lock then c.last_lock_done <- d;
          (* Port occupancy: dividers are unpipelined. *)
          let occupancy =
            match klass with
            | Iclass.Int_div | Iclass.Float_div -> float_of_int iform.Iform.latency *. 0.6
            | _ -> 1.0
          in
          Array.unsafe_set t.port_free port (start +. occupancy);
          let uops = iform.Iform.uops in
          ctr.Counters.uops <- ctr.Counters.uops + uops;
          cs.Counters.retiring <- cs.Counters.retiring +. float_of_int uops;
          issue_after :=
            start
            +.
            if uops < inc_uops then Array.unsafe_get t.issue_inc uops
            else float_of_int uops /. width;
          done_t := d);
      let done_t = !done_t in
      (* Branch resolution. *)
      (match klass with
      | Iclass.Branch_cond | Iclass.Branch_uncond | Iclass.Call | Iclass.Ret -> (
          ctr.Counters.branches <- ctr.Counters.branches + 1;
          match temp.Block.branch with
          | Some spec when klass = Iclass.Branch_cond -> (
              let seq = temp.Block.branch_seq in
              temp.Block.branch_seq <- seq + 1;
              let outcome =
                Block.branch_outcome ~m:spec.Block.m ~n:spec.Block.n seq <> spec.Block.invert
              in
              match Branch_pred.predict_and_update t.bp ~pc ~taken:outcome with
              | `Correct -> ()
              | `Mispredict ->
                  ctr.Counters.mispredicts <- ctr.Counters.mispredicts + 1;
                  let redirect = done_t +. float_of_int plat.Platform.mispredict_penalty in
                  c.fetch_avail <- fmax c.fetch_avail redirect;
                  c.resteer_until <- fmax c.resteer_until redirect
              | `Btb_miss ->
                  ctr.Counters.btb_misses <- ctr.Counters.btb_misses + 1;
                  let redirect = start +. float_of_int plat.Platform.btb_miss_penalty in
                  c.fetch_avail <- fmax c.fetch_avail redirect)
          | Some _ | None -> (
              match Branch_pred.note_unconditional t.bp ~pc with
              | `Correct -> ()
              | `Btb_miss ->
                  ctr.Counters.btb_misses <- ctr.Counters.btb_misses + 1;
                  let redirect = start +. float_of_int plat.Platform.btb_miss_penalty in
                  c.fetch_avail <- fmax c.fetch_avail redirect))
      | _ -> ());
      (* Writeback and retirement bookkeeping. *)
      if temp.Block.dst >= 0 then Array.unsafe_set t.reg_ready temp.Block.dst done_t;
      Array.unsafe_set t.rob t.rob_pos done_t;
      let rp = t.rob_pos + 1 in
      t.rob_pos <- (if rp = rob_len then 0 else rp);
      if done_t > c.max_done then c.max_done <- done_t;
      c.next_issue <- fmax c.next_issue !issue_after
    done
  done;
  cs.Counters.cycles <- cs.Counters.cycles +. fmax 0.0 (now t -. before)
