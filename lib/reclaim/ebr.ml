(* Epoch-based memory reclamation, after the ssmem allocator the paper
   uses (David et al., ASPLOS 2015).

   OCaml's garbage collector makes the physical free a no-op, so a
   "free" here runs a caller-supplied thunk (tests use it to detect
   use-after-free; benchmarks count it), but the reclamation protocol —
   announcement, grace periods, per-epoch limbo lists — is implemented
   and tested in full, over the same memory abstraction as the data
   structures so the simulator can interleave it adversarially.

   Protocol: a thread announces the global epoch on entering a critical
   section and clears its announcement on exit. Nodes retired in epoch
   [e] are freed once the global epoch reaches [e + 2]: advancing from
   [e] requires every announced epoch to equal [e], so any thread still
   holding a reference announced at most [e]; after two advances no
   critical section overlapping the retirement can remain. *)

module Make (M : Nvt_nvm.Memory.S) = struct
  type t = {
    global : int M.loc;
    announcements : int M.loc array;  (* -1 = not in a critical section *)
    limbo : (unit -> unit) list M.loc array array;  (* [tid].(epoch mod 3) *)
    retired : int M.loc;
    freed : int M.loc;
  }

  let create ~max_threads =
    { global = M.alloc 0;
      announcements = Array.init max_threads (fun _ -> M.alloc (-1));
      limbo =
        Array.init max_threads (fun _ ->
            Array.init 3 (fun _ -> M.alloc []));
      retired = M.alloc 0;
      freed = M.alloc 0 }

  let enter t ~tid =
    let e = M.read t.global in
    M.write t.announcements.(tid) e

  let exit_cs t ~tid = M.write t.announcements.(tid) (-1)

  let rec push_limbo l thunk =
    let cur = M.read l in
    if not (M.cas l ~expected:cur ~desired:(thunk :: cur)) then
      push_limbo l thunk

  let rec bump counter n =
    let cur = M.read counter in
    if not (M.cas counter ~expected:cur ~desired:(cur + n)) then bump counter n

  (* Must be called between [enter] and [exit_cs]: the caller's
     announcement is what pins the current epoch's limbo bucket. *)
  let retire t ~tid thunk =
    let e = M.read t.global in
    push_limbo t.limbo.(tid).(e mod 3) thunk;
    bump t.retired 1

  let rec drain l =
    let cur = M.read l in
    if cur = [] then []
    else if M.cas l ~expected:cur ~desired:[] then cur
    else drain l

  (* Try to advance the global epoch; on success, free everything retired
     two epochs ago. Returns the number of thunks freed, or None if some
     thread lags. *)
  let try_advance t =
    let e = M.read t.global in
    let lagging =
      Array.exists
        (fun a ->
          let v = M.read a in
          v >= 0 && v <> e)
        t.announcements
    in
    if lagging then None
    else if M.cas t.global ~expected:e ~desired:(e + 1) then begin
      let bucket = (e + 2) mod 3 in
      let n = ref 0 in
      Array.iter
        (fun per_tid ->
          let thunks = drain per_tid.(bucket) in
          List.iter (fun f -> f ()) thunks;
          n := !n + List.length thunks)
        t.limbo;
      if !n > 0 then bump t.freed !n;
      (* shrink the backend's working-set estimate: these nodes no
         longer compete for cache capacity *)
      Nvt_nvm.Memory.reclaimed !n;
      Some !n
    end
    else None

  let retired_count t = M.read t.retired
  let freed_count t = M.read t.freed

  (* How many retired thunks are still waiting in limbo. *)
  let pending t = retired_count t - freed_count t
end
