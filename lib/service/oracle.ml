(* Violation order is part of the oracle's contract: the first
   violation is the kill detail the mutation battery records. Events
   report as they arrive; each request pass (at every recovered point,
   and the final one) is one loop over arrival numbers that skips
   unacknowledged requests, so within a pass violations come in
   ascending arrival number.

   Per-request state is flat: a request is its arrival number, the
   position of its arrival in the schedule, and each field is an int
   array indexed by it, so the oracle holds no block per request: one
   state word (acknowledgements, applies and the recorded result), the
   commit position and the latency. Events find the arrival number
   through a dense index, one int array per client indexed by seq, so
   no event hashes a tuple; they arrive as ints (client, seq, and a
   result as a tag and a value), so no event needs a request or a
   result built for it. *)

type arrivals = {
  a_id : int array;
  a_op : Service.op array;
  a_time : int array;
}

(* An arrival id keeps the client in its low [client_bits] bits and the
   seq above them. *)
let client_bits = 16
let client_mask = (1 lsl client_bits) - 1
let max_clients = 1 lsl client_bits
let seq_limit = 1 lsl (Sys.int_size - 1 - client_bits)

let pack ~client ~seq =
  let reject why =
    invalid_arg
      (Printf.sprintf "Oracle.pack: client=%d seq=%d %s" client seq why)
  in
  if client < 0 || client >= max_clients then
    reject (Printf.sprintf "has a client outside [0, %d)" max_clients)
  else if seq < 0 || seq >= seq_limit then
    reject
      (Printf.sprintf "has a seq outside [0, 2^%d)"
         (Sys.int_size - 1 - client_bits))
  else (seq lsl client_bits) lor client

let client_of id = id land client_mask
let seq_of id = id asr client_bits

(* A result as two ints: a tag (0 [Done false], 1 [Done true], 2
   [Value None], 3 [Value (Some v)]) and [v] (0 for the other tags). *)
let result_tag : Service.result -> int = function
  | Done false -> 0
  | Done true -> 1
  | Value None -> 2
  | Value (Some _) -> 3

let result_value : Service.result -> int = function
  | Value (Some v) -> v
  | Done _ | Value None -> 0

let result_of ~tag ~value : Service.result =
  match tag with
  | 0 -> Done false
  | 1 -> Done true
  | 2 -> Value None
  | _ -> Value (Some value)

(* A request's state word. Bit 0 says whether it was acknowledged: the
   checks ask nothing more of its acknowledgements. Bits 1-2 count its
   applies, saturating: a request is applied 3 times only when re-sends
   re-apply it twice, so from 3 on the exact count lives in [spill].
   Bits 3-4 hold the first acknowledgement's result tag and the bits
   above its value; both are recorded iff the request was
   acknowledged. *)
let acked_bit = 1
let applies_of s = (s lsr 1) land 3
let one_apply = 2
let tag_of s = (s lsr 3) land 3
let value_shift = 5
let value_bits = Sys.int_size - value_shift

(* The state bits of a first acknowledgement's result. *)
let result_bits ~client ~seq ~tag ~value =
  if tag < 3 then tag lsl 3
  else begin
    if (value lsl value_shift) asr value_shift <> value then
      invalid_arg
        (Printf.sprintf
           "Oracle.ack: client=%d seq=%d result value %d outside [-2^%d, \
            2^%d)"
           client seq value (value_bits - 1) (value_bits - 1));
    (value lsl value_shift) lor (3 lsl 3)
  end

type t = {
  arr : arrivals;
  index : int array array;  (* [client].(seq): arrival number, -1 in gaps *)
  requests : int;
  state : int array;  (* this and [pos]: per arrival number *)
  pos : int array;
      (* the (global shard, slot) of the service's commit claim, packed
         (see [shard_bits]); -1: none observed. It is where the
         durable-commit audit holds the ledger against the ack. *)
  latencies : int array;
      (* arrival to first acknowledgement, in acknowledgement order:
         [completed] are filled *)
  spill : (int, int) Hashtbl.t;  (* arrival number -> applies, from 3 *)
  mutable violations : string list;  (* newest first, at most [cap] *)
  mutable reported : int;  (* including those beyond [cap] *)
  mutable completed : int;
  mutable applies : int;
  mutable dedup_acks : int;
  last_acked : int array;  (* per client, highest acknowledged seq *)
  mutable stalled : bool;
  mutable audit : bool;
  mutable audit_acks : int;
  mutable audit_expected : int;
}

let cap = 32

(* A commit position keeps the global shard in its low [shard_bits]
   bits and the slot above them. *)
let shard_bits = 16
let shard_mask = (1 lsl shard_bits) - 1

let create ~clients (arr : arrivals) =
  let requests = Array.length arr.a_id in
  if Array.length arr.a_op <> requests || Array.length arr.a_time <> requests
  then invalid_arg "Oracle.create: arrival arrays of different lengths";
  if clients > max_clients then
    invalid_arg
      (Printf.sprintf "Oracle.create: %d clients, at most %d" clients
         max_clients);
  let len = Array.make clients 0 in
  for i = 0 to requests - 1 do
    let c = client_of arr.a_id.(i) and s = seq_of arr.a_id.(i) in
    let reject why =
      invalid_arg
        (Printf.sprintf "Oracle.create: arrival client=%d seq=%d %s" c s why)
    in
    if c >= clients then
      reject (Printf.sprintf "has a client outside [0, %d)" clients)
    else if s < 0 then reject "has a negative seq";
    len.(c) <- max len.(c) (s + 1)
  done;
  let index = Array.map (fun n -> Array.make n (-1)) len in
  (* a repeated (client, seq) keeps its last arrival *)
  for i = 0 to requests - 1 do
    let id = arr.a_id.(i) in
    index.(client_of id).(seq_of id) <- i
  done;
  { arr;
    index;
    requests;
    state = Array.make requests 0;
    pos = Array.make requests (-1);
    latencies = Array.make requests 0;
    spill = Hashtbl.create 16;
    violations = [];
    reported = 0;
    completed = 0;
    applies = 0;
    dedup_acks = 0;
    last_acked = Array.make clients (-1);
    stalled = false;
    audit = false;
    audit_acks = 0;
    audit_expected = 0 }

let violation t fmt =
  Printf.ksprintf
    (fun s ->
      if t.reported < cap then t.violations <- s :: t.violations;
      t.reported <- t.reported + 1)
    fmt

let violations t =
  let vs = List.rev t.violations in
  if t.reported <= cap then vs
  else vs @ [ Printf.sprintf "… and %d more violations" (t.reported - cap) ]

(* The arrival number of [(client, seq)], or -1. *)
let lookup t client seq =
  if client < 0 || client >= Array.length t.index then -1
  else
    let a = t.index.(client) in
    if seq < 0 || seq >= Array.length a then -1 else a.(seq)

let find t client seq =
  let i = lookup t client seq in
  if i < 0 then violation t "unknown request client=%d seq=%d" client seq;
  i

let acked_at t i = t.state.(i) land acked_bit <> 0

let applied t i =
  let n = applies_of t.state.(i) in
  if n < 3 then n else Hashtbl.find t.spill i

let recorded_result t i : Service.result option =
  let s = t.state.(i) in
  if s land acked_bit = 0 then None
  else
    Some
      (match tag_of s with
      | 0 -> Done false
      | 1 -> Done true
      | 2 -> Value None
      | _ -> Value (Some (s asr value_shift)))

(* ---- events ---- *)

let note_apply t ~client ~seq =
  t.applies <- t.applies + 1;
  let i = find t client seq in
  if i >= 0 then begin
    let s = t.state.(i) in
    (match applies_of s with
    | 3 -> Hashtbl.replace t.spill i (Hashtbl.find t.spill i + 1)
    | n ->
      if n = 2 then Hashtbl.replace t.spill i 3;
      t.state.(i) <- s + one_apply);
    if t.audit then
      violation t "audit: client=%d seq=%d re-applied after final ack" client
        seq
    else if s land acked_bit <> 0 then
      violation t "client=%d seq=%d applied after acknowledgement" client seq
  end

let note_commit t ~client ~seq ~shard ~slot =
  if shard < 0 || shard > shard_mask || slot < 0 then
    invalid_arg
      (Printf.sprintf "Oracle.commit: client=%d seq=%d at shard %d slot %d"
         client seq shard slot);
  let i = find t client seq in
  if i >= 0 then t.pos.(i) <- (slot lsl shard_bits) lor shard

let pp_result_opt = function
  | Some r -> Format.asprintf "%a" Service.pp_result r
  | None -> "nothing"

let note_ack t ~client ~seq ~tag ~value ~dedup ~time =
  let i = find t client seq in
  if i < 0 then false
  else if t.audit then begin
    if not dedup then
      violation t "audit: client=%d seq=%d fresh ack, expected dedup" client
        seq;
    let s = t.state.(i) in
    if
      s land acked_bit = 0
      || tag_of s <> tag
      || (tag = 3 && s asr value_shift <> value)
    then
      violation t "audit: client=%d seq=%d answered %s, recorded %s" client
        seq
        (pp_result_opt (Some (result_of ~tag ~value)))
        (pp_result_opt (recorded_result t i));
    t.audit_acks <- t.audit_acks + 1;
    false
  end
  else begin
    if dedup then t.dedup_acks <- t.dedup_acks + 1;
    let s = t.state.(i) in
    if s land acked_bit <> 0 then begin
      violation t "client=%d seq=%d acknowledged twice" client seq;
      false
    end
    else begin
      (* keep the applies, record the result *)
      t.state.(i) <-
        result_bits ~client ~seq ~tag ~value
        lor (s land (3 * one_apply))
        lor acked_bit;
      t.latencies.(t.completed) <- time - t.arr.a_time.(i);
      t.completed <- t.completed + 1;
      if seq > t.last_acked.(client) then t.last_acked.(client) <- seq;
      true
    end
  end

let apply t (r : Service.request) = note_apply t ~client:r.client ~seq:r.seq

let commit t (r : Service.request) ~shard ~slot =
  note_commit t ~client:r.client ~seq:r.seq ~shard ~slot

let ack t (r : Service.request) res ~dedup ~time =
  note_ack t ~client:r.client ~seq:r.seq ~tag:(result_tag res)
    ~value:(result_value res) ~dedup ~time

(* ---- recovered quiescent points ---- *)

(* Durable-commit audit: every request acknowledged before the crash
   committed at a recorded (shard, slot), and that slot must still be
   below the shard's recovered commit extent (checkpoint base +
   retained suffix). The final-state check can only vouch for truncated
   records through a later committed seq of the same client — and after
   the full run a victim's successor can commit in a later era and
   vouch for an ack the crash actually erased; the recorded position
   needs no vouching, so a lost acknowledgement is caught red-handed
   here. This is the window the commit fence closes — recovery's store
   reconciliation repairs the state divergence that used to betray its
   loss, so the oracle must hold the ack against the ledger directly. *)
let check_recovered t (durable : Service.durable array) ~status =
  let extent =
    Array.map
      (fun (d : Service.durable) -> d.dv_base + List.length d.dv_log)
      durable
  in
  for i = 0 to t.requests - 1 do
    if acked_at t i then
      let id = t.arr.a_id.(i) and p = t.pos.(i) in
      let gs = p land shard_mask and slot = p lsr shard_bits in
      if p < 0 then
        violation t
          "recovery: client=%d seq=%d acknowledged without an observed \
           commit"
          (client_of id) (seq_of id)
      else if slot >= extent.(gs) then
        violation t
          "recovery: client=%d seq=%d acknowledged at shard %d slot %d but \
           the recovered commit extent is %d — acknowledged work lost"
          (client_of id) (seq_of id) gs slot extent.(gs)
  done;
  (* Detect mode's own obligation: every acknowledged request must
     answer [Completed] to the status query of the slice that owns its
     key — a descriptor lost (or a stale one mistaken for valid)
     surfaces here as a liveness lie rather than waiting for a re-send
     to double-apply. *)
  Option.iter
    (fun status ->
      for i = 0 to t.requests - 1 do
        if acked_at t i then
          let id = t.arr.a_id.(i) in
          let cl = client_of id and sq = seq_of id in
          match status ~client:cl ~seq:sq t.arr.a_op.(i) with
          | Nvt_nvm.Detectable.Completed -> ()
          | st ->
            violation t
              "detect: client=%d seq=%d acknowledged but status says %s" cl sq
              (Nvt_nvm.Detectable.status_name st)
      done)
    status

(* ---- final state ---- *)

(* The reference semantics the replay checks the service against. The
   service's own mirror implements the same semantics; this copy is
   kept separate on purpose, so a bug in one cannot hide in the other. *)
let apply_model model (op : Service.op) : Service.result =
  match op with
  | Service.Put (k, v) ->
    if Hashtbl.mem model k then Service.Done false
    else begin
      Hashtbl.replace model k v;
      Service.Done true
    end
  | Service.Del k ->
    if Hashtbl.mem model k then begin
      Hashtbl.remove model k;
      Service.Done true
    end
    else Service.Done false
  | Service.Get k -> Service.Value (Hashtbl.find_opt model k)
  | Service.Multi_put kvs ->
    (* add-if-absent per key in list order, true iff every key was
       fresh *)
    Service.Done
      (List.fold_left
         (fun acc (k, v) ->
           let fresh = not (Hashtbl.mem model k) in
           if fresh then Hashtbl.replace model k v;
           acc && fresh)
         true kvs)
  | Service.Rmw (k, d) -> (
    match Hashtbl.find_opt model k with
    | Some v ->
      Hashtbl.replace model k (v + d);
      Service.Value (Some v)
    | None ->
      Hashtbl.replace model k d;
      Service.Value None)

let check_final t ~invariant ~crash_free ~prefill ~durable ~contents =
  Option.iter (violation t "invariant: %s") invariant;
  let shards = Array.length durable in
  (* The replay model seeds each shard's keys from its checkpoint
     snapshot when one committed (the snapshot *is* the model replay of
     the truncated prefix over the prefill), else from the prefill, then
     replays the retained log suffixes. *)
  let model : (int, int) Hashtbl.t =
    Hashtbl.create (2 * List.length prefill)
  in
  List.iter
    (fun k ->
      if durable.(Service.global_shard ~shards k).Service.dv_base = 0 then
        Hashtbl.replace model k k)
    prefill;
  Array.iter
    (fun (d : Service.durable) ->
      List.iter (fun (k, v) -> Hashtbl.replace model k v) d.dv_pairs)
    durable;
  (* per client, the highest committed seq visible anywhere: retained
     suffix records, or checkpoint coverage for records truncated away.
     A sequential client submits seq n+1 only after seq n was
     acknowledged — and an ack happens only after commit — so a later
     committed seq vouches for every earlier acked one even when both
     its log record and its dedup-snapshot entry are gone: the dedup
     table keeps only each client's latest record, so a shard's next
     checkpoint drops a client whose newer traffic moved to another
     shard. *)
  let max_committed = Array.make (Array.length t.index) (-1) in
  let note cl sq = if sq > max_committed.(cl) then max_committed.(cl) <- sq in
  Array.iter
    (fun (d : Service.durable) ->
      List.iter
        (fun (cl, (c : Service.completion)) -> note cl c.seq)
        d.dv_covered)
    durable;
  (* the arrival numbers of the durable log's pairs *)
  let committed = ref [] in
  Array.iter
    (fun (d : Service.durable) ->
      List.iter
        (fun (e : Service.entry) ->
          let i = lookup t e.e_client e.e_seq in
          if i < 0 then
            violation t "unknown request client=%d seq=%d" e.e_client e.e_seq
          else begin
            committed := i :: !committed;
            note e.e_client e.e_seq
          end;
          let r = apply_model model e.e_op in
          if crash_free && r <> e.e_res then
            violation t
              "crash-free replay: client=%d seq=%d %s -> %s, log says %s"
              e.e_client e.e_seq
              (Format.asprintf "%a" Service.pp_op e.e_op)
              (Format.asprintf "%a" Service.pp_result r)
              (Format.asprintf "%a" Service.pp_result e.e_res))
        d.dv_log)
    durable;
  (* sorted, a pair committed n times is a run of n *)
  let committed = Array.of_list !committed in
  Array.sort Int.compare committed;
  let n = Array.length committed and j = ref 0 in
  while !j < n do
    let i = committed.(!j) and k = ref (!j + 1) in
    while !k < n && committed.(!k) = i do
      incr k
    done;
    if !k - !j > 1 then begin
      let id = t.arr.a_id.(i) in
      violation t "client=%d seq=%d committed %d times" (client_of id)
        (seq_of id) (!k - !j)
    end;
    j := !k
  done;
  for i = 0 to t.requests - 1 do
    if acked_at t i then begin
      let id = t.arr.a_id.(i) in
      let cl = client_of id and sq = seq_of id in
      if sq > max_committed.(cl) then
        violation t "client=%d seq=%d acknowledged but not committed" cl sq;
      if crash_free && applied t i <> 1 then
        violation t "crash-free: client=%d seq=%d applied %d times" cl sq
          (applied t i)
    end
  done;
  let actual = List.sort Types.compare_pair contents in
  let expected =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
    |> List.sort Types.compare_pair
  in
  if actual <> expected then
    violation t
      "state divergence: store has %d pairs, committed-log replay has %d \
       (acknowledged work lost or uncommitted work acknowledged)"
      (List.length actual) (List.length expected)

(* ---- liveness and the audit phase ---- *)

let stall t ~in_recovery ~watchdog =
  if in_recovery then begin
    t.stalled <- true;
    violation t "stalled: recovery watchdog fired after %d steps" watchdog
  end
  else if t.audit then
    violation t "audit stalled: %d/%d dedup acks" t.audit_acks t.audit_expected
  else begin
    t.stalled <- true;
    violation t "stalled: watchdog fired after %d steps with %d/%d acked"
      watchdog t.completed t.requests
  end

let stalled t = t.stalled

let start_audit t =
  t.audit <- true;
  let resend = ref [] in
  for client = Array.length t.last_acked - 1 downto 0 do
    let seq = t.last_acked.(client) in
    if seq >= 0 then begin
      t.audit_expected <- t.audit_expected + 1;
      let i = lookup t client seq in
      if i >= 0 then
        resend := { Service.client; seq; op = t.arr.a_op.(i) } :: !resend
    end
  done;
  !resend

let auditing t = t.audit

let settled t =
  if t.audit then t.audit_acks >= t.audit_expected
  else t.completed >= t.requests

let acked t = t.completed
let applies t = t.applies
let dedup_acks t = t.dedup_acks
let audit_acks t = t.audit_acks
let latencies t = t.latencies
