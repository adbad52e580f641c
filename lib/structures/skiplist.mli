(** A lock-free skiplist with a Harris-style bottom list. Only the
    bottom level is the core tree: the index towers are auxiliary,
    never flushed, and rebuilt wholesale by [recover] — the structure
    where the NVTraverse insight (don't persist the journey) pays the
    most. Node heights are a deterministic function of the key. *)

module Make (M : Nvt_nvm.Memory.S) (P : Nvt_nvm.Persist.Make(M).S) :
  Nvt_core.Set_intf.SET
