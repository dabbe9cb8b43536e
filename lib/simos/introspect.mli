(** White-box ground truth, for evaluation only.

    The paper instrumented the Linux kernel to "return a bit-map of
    presence bits per page of the file" in order to {e evaluate} FCCD
    (Figure 1, footnote 2) — never to implement it.  This module plays the
    same role for the simulator: tests and benches compare ICL inferences
    against these answers; ICLs themselves must never call it. *)

val cache_bitmap : Kernel.t -> path:string -> (bool array, Kernel.error) result
(** Per-page presence of the file's data in the file cache. *)

val cached_fraction : Kernel.t -> path:string -> float
(** Fraction of the file's pages resident; [0.] on errors. *)

val file_cached_pages : Kernel.t -> path:string -> int

val file_layout : Kernel.t -> path:string -> (int array, Kernel.error) result
(** Physical block addresses of the file's pages, in page order. *)

val resident_anon_pages : Kernel.t -> pid:int -> int
(** Frames currently holding anonymous pages of this process. *)

val available_anon_pages : Kernel.t -> exclude_pid:int -> int
(** Ground truth for MAC: how many frames a process could claim without
    paging out other processes' anonymous memory (file pages count as
    reclaimable in a unified layout). *)

val resident_file_pages : Kernel.t -> int
val file_cache_capacity_pages : Kernel.t -> int
