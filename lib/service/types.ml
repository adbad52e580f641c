(** The service's request and record types, shared by the ledger, the
    descriptor store and {!Service}, which re-exports them. *)

type op =
  | Put of int * int  (** add-if-absent *)
  | Del of int
  | Get of int
  | Multi_put of (int * int) list
      (** k puts on {e one shard}, applied in list order and committed
          as one ledger record under the standard two commit fences —
          durable multi-put at a pair of fences for k keys, even in
          per-op mode. Every key must map to the same global shard
          ({!Service.global_shard}); a spanning batch raises, and an
          empty one is invalid. [Done true] iff every key was fresh. *)
  | Rmw of int * int
      (** [Rmw (k, d)]: read-modify-write — add [d] to [k]'s current
          value, installing [d] when absent; answers [Value old]. One
          request, one ledger record, one commit: the read and the
          write cannot be separated by a crash. *)

(** The key routing the request to its shard (a multi-put routes by its
    first key). Raises [Invalid_argument] on [Multi_put []]. *)
let key_of_op = function
  | Put (k, _) | Del k | Get k | Rmw (k, _) -> k
  | Multi_put ((k, _) :: _) -> k
  | Multi_put [] -> invalid_arg "service: empty multi-put"

let pp_op ppf = function
  | Put (k, v) -> Format.fprintf ppf "put(%d,%d)" k v
  | Del k -> Format.fprintf ppf "del(%d)" k
  | Get k -> Format.fprintf ppf "get(%d)" k
  | Multi_put kvs ->
    Format.fprintf ppf "mput[%s]"
      (String.concat ";"
         (List.map (fun (k, v) -> Printf.sprintf "%d,%d" k v) kvs))
  | Rmw (k, d) -> Format.fprintf ppf "rmw(%d,%+d)" k d

(** [compare] on int pairs, without the polymorphic [compare]. *)
let compare_pair ((a1 : int), (b1 : int)) (a2, b2) =
  let c = Int.compare a1 a2 in
  if c <> 0 then c else Int.compare b1 b2

type result = Done of bool | Value of int option

let pp_result ppf = function
  | Done b -> Format.fprintf ppf "%b" b
  | Value None -> Format.fprintf ppf "none"
  | Value (Some v) -> Format.fprintf ppf "some %d" v

(* Declared before [request], so that an unannotated [r.seq] still
   means a request's. *)
type completion = { seq : int; shard : int; slot : int; res : result }
(** The destination of a request, and all that recovery needs of it:
    a client's last completed request is [seq], committed with result
    [res] at log [slot] of local [shard]. The one record the dedup
    table, the checkpoints and detect mode's descriptors keep, per
    client. *)

(** No completion: what the dedup table holds for a client it has not
    seen, and a nulled descriptor cell. *)
let no_completion = { seq = -1; shard = -1; slot = -1; res = Done false }

type request = { client : int; seq : int; op : op }
(** Clients are sequential sessions: a client submits [seq] n+1 only
    after [seq] n was acknowledged, and may re-send its outstanding
    request after a crash. *)

type entry = { e_client : int; e_seq : int; e_op : op; e_res : result }
(** One committed-log record, stored whole in one cell: key, value and
    result persist atomically with the identity (the simulator's cell
    is the cache line). *)
