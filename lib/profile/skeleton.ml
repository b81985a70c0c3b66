open Ditto_app
module Tree = Ditto_util.Tree_edit
module Syscall = Ditto_os.Syscall

type thread_class = {
  cluster_size : int;
  long_lived : bool;
  trigger : [ `Socket | `Timer ];
}

type t = {
  server_model : Spec.server_model;
  client_model : Spec.client_model;
  worker_threads : int;
  dynamic_threads : bool;
  thread_classes : thread_class list;
  background : (string * float) list;
  request_bytes : int;
  response_bytes : int;
}

let clustering_threshold = 0.35

let op_label = function
  | Spec.Compute _ -> "user_compute"
  | Spec.Syscall k -> Syscall.name k
  | Spec.File_read _ -> "pread"
  | Spec.File_write _ -> "pwrite"
  | Spec.Call _ -> "rpc_call"

let call_tree_of_ops ~skeleton ops =
  let skeleton_children = List.map Tree.leaf skeleton in
  let body_children =
    List.map
      (fun op ->
        match op with
        | Spec.Call _ ->
            (* An RPC nests its own socket write/read pair. *)
            Tree.node (op_label op) [ Tree.leaf "sock_write"; Tree.leaf "sock_read" ]
        | _ -> Tree.leaf (op_label op))
      ops
  in
  Tree.node "thread" (skeleton_children @ body_children)

(* The kernel-visible skeleton syscalls of one request under each server
   model — what SystemTap would see at the socket layer. *)
let skeleton_syscalls = function
  | Spec.Io_multiplexing -> [ "epoll_wait"; "sock_read"; "sock_write" ]
  | Spec.Blocking -> [ "sock_read"; "sock_write" ]
  | Spec.Nonblocking -> [ "sock_poll"; "sock_read"; "sock_write" ]

let infer_server_model trees =
  let has label (Tree.Node (_, children)) =
    List.exists (fun (Tree.Node (l, _)) -> l = label) children
  in
  match trees with
  | [] -> Spec.Io_multiplexing
  | tree :: _ ->
      if has "epoll_wait" tree then Spec.Io_multiplexing
      else if has "sock_poll" tree then Spec.Nonblocking
      else Spec.Blocking

let detect (tier : Spec.tier) ~samples ~seed =
  let rng = Ditto_util.Rng.create seed in
  let skeleton = skeleton_syscalls tier.Spec.server_model in
  (* Sample activations: each worker thread observed across several
     requests, plus any timer-triggered background threads. *)
  let worker_trees =
    List.concat_map
      (fun _worker ->
        List.init (max 1 (samples / max 1 tier.Spec.thread_model.Spec.workers)) (fun req ->
            (`Worker, call_tree_of_ops ~skeleton (tier.Spec.handler rng req))))
      (List.init tier.Spec.thread_model.Spec.workers Fun.id)
  in
  let background_trees =
    match tier.Spec.background_handler with
    | None -> []
    | Some bg ->
        List.map
          (fun (name, _period) ->
            ignore name;
            (`Background, call_tree_of_ops ~skeleton:[ "timer_wait" ] (bg rng)))
          tier.Spec.thread_model.Spec.background
  in
  let all = Array.of_list (worker_trees @ background_trees) in
  (* Most sampled activations have identical call trees: intern them and
     compute each ordered pair of distinct trees' distance once. The
     memo returns exactly what the direct call would, so the clustering is
     unchanged. *)
  let ids = Hashtbl.create 16 in
  let interned =
    Array.map
      (fun (kind, tree) ->
        let id =
          match Hashtbl.find_opt ids tree with
          | Some id -> id
          | None ->
              let id = Hashtbl.length ids in
              Hashtbl.add ids tree id;
              id
        in
        (kind, id, tree))
      all
  in
  let distinct = Hashtbl.length ids in
  let memo = Array.make_matrix distinct distinct Float.nan in
  let distance (_, ia, a) (_, ib, b) =
    let d = memo.(ia).(ib) in
    if Float.is_nan d then begin
      let d = Tree.normalized_distance a b in
      memo.(ia).(ib) <- d;
      d
    end
    else d
  in
  let clusters =
    Ditto_util.Cluster.agglomerative ~distance ~threshold:clustering_threshold interned
  in
  let thread_classes =
    List.map
      (fun members ->
        let timer =
          List.exists
            (fun (kind, _, _) -> match kind with `Background -> true | `Worker -> false)
            members
        in
        {
          cluster_size = List.length members;
          (* Long-lived: spawned once and waiting for work — true for both
             epoll workers and timer threads here; short-lived would show
             clone() per activation. *)
          long_lived = not tier.Spec.thread_model.Spec.dynamic_threads || timer;
          trigger = (if timer then `Timer else `Socket);
        })
      clusters
  in
  let server_model = infer_server_model (List.map snd worker_trees) in
  let client_model = tier.Spec.client_model in
  {
    server_model;
    client_model;
    worker_threads = tier.Spec.thread_model.Spec.workers;
    dynamic_threads = tier.Spec.thread_model.Spec.dynamic_threads;
    thread_classes;
    background = tier.Spec.thread_model.Spec.background;
    request_bytes = tier.Spec.request_bytes;
    response_bytes = tier.Spec.response_bytes;
  }
