(** Harris's lock-free sorted linked list (DISC 2001) in traversal form —
    the paper's running example.

    Instantiate with [Persist.Make(M).Volatile] for the original
    algorithm or [Persist.Make(M).Durable] for its NVTraverse
    transformation; with {!Nvt_nvm.Izraelevitz.Make}[ (M)] as the memory
    for the Izraelevitz et al. construction; with
    {!Nvt_nvm.Link_and_persist.Make}[ (M)] for tagged-word flushing. *)

module Make (M : Nvt_nvm.Memory.S) (P : Nvt_nvm.Persist.Make(M).S) : sig
  include Nvt_core.Set_intf.SET

  module E : module type of Nvt_core.Engine.Make (M) (P)
  (** The engine instance driving this structure's operations; exposed
      for the ablation (flush-necessity) tests. *)
end
