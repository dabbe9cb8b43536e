let with_file k ~path f =
  match Kernel.resolve_path k path with
  | Error e -> Error e
  | Ok (vol, rest) -> (
    let fs = Kernel.volume_fs k vol in
    match Fs.lookup fs rest with
    | Error e -> Error (Kernel.Fs_error e)
    | Ok ino -> Ok (f ~vol ~fs ~ino))

let cache_bitmap k ~path =
  with_file k ~path (fun ~vol ~fs ~ino ->
      let pages = Fs.pages_of_file fs ~ino in
      let gino = Kernel.global_ino k ~volume:vol ~ino in
      Array.init pages (fun idx ->
          Memory.contains (Kernel.memory k) (Page.File { ino = gino; idx })))

let file_cached_pages k ~path =
  match cache_bitmap k ~path with
  | Error _ -> 0
  | Ok bitmap -> Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 bitmap

let cached_fraction k ~path =
  match cache_bitmap k ~path with
  | Error _ -> 0.0
  | Ok bitmap when Array.length bitmap = 0 -> 0.0
  | Ok bitmap ->
    float_of_int (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 bitmap)
    /. float_of_int (Array.length bitmap)

let file_layout k ~path =
  with_file k ~path (fun ~vol:_ ~fs ~ino -> Fs.layout_of_file fs ~ino)

let count_anon k ~pred =
  let n = ref 0 in
  (* In the unified layout the anon pool is the single shared pool, so one
     pass covers everything. *)
  Pool.iter
    (Memory.anon_pool (Kernel.memory k))
    (fun key ->
      match key with
      | Page.Anon { pid; vpn } -> if pred ~pid ~vpn then incr n
      | Page.File _ -> ());
  !n

let resident_anon_pages k ~pid =
  count_anon k ~pred:(fun ~pid:p ~vpn:_ -> p = pid)

let available_anon_pages k ~exclude_pid =
  let mem = Kernel.memory k in
  let others = count_anon k ~pred:(fun ~pid ~vpn:_ -> pid <> exclude_pid) in
  Memory.anon_capacity mem - others

let resident_file_pages k = Memory.resident_file (Kernel.memory k)
let file_cache_capacity_pages k = Memory.file_capacity (Kernel.memory k)
