open Simos

let page = 4096

(* The shadow cache keys pages by (path, index): the agent sees path
   names, not inode numbers, and never talks to the real kernel for its
   model.  Page.key is reused by hashing the path into a pseudo-ino. *)
type t = {
  shadow : Pool.t;
  path_ids : (string, int) Hashtbl.t;
  mutable next_id : int;
  trace : Trace.t option;
}

let create ?trace ~assumed_policy ~assumed_capacity_pages () =
  {
    shadow =
      Pool.create ~name:"shadow" ~capacity_pages:assumed_capacity_pages
        ~policy:assumed_policy;
    path_ids = Hashtbl.create 64;
    next_id = 1;
    trace;
  }

let id_of t path =
  match Hashtbl.find_opt t.path_ids path with
  | Some id -> id
  | None ->
    let id = t.next_id in
    t.next_id <- id + 1;
    Hashtbl.replace t.path_ids path id;
    id

let key t ~path ~idx = Page.File { ino = id_of t path; idx }

let observe t ~path ~off ~len ~dirty =
  if len > 0 then begin
    let first = off / page and last = (off + len - 1) / page in
    for idx = first to last do
      ignore (Pool.access t.shadow (key t ~path ~idx) ~dirty)
    done
  end

let emit t ev =
  match t.trace with None -> () | Some tr -> Trace.record tr ev

let read t env fd ~path ~off ~len =
  match Kernel.read env fd ~off ~len with
  | Error e -> Error e
  | Ok n ->
    observe t ~path ~off ~len:n ~dirty:false;
    emit t (Trace.Read { path; off; len = n });
    Ok n

let write t env fd ~path ~off ~len =
  match Kernel.write env fd ~off ~len with
  | Error e -> Error e
  | Ok n ->
    observe t ~path ~off ~len:n ~dirty:true;
    emit t (Trace.Write { path; off; len = n });
    Ok n

let note_unlink t ~path =
  emit t (Trace.Unlink { path });
  match Hashtbl.find_opt t.path_ids path with
  | None -> ()
  | Some id ->
    ignore
      (Pool.invalidate_if t.shadow (fun k ->
           match k with Page.File { ino; _ } -> ino = id | Page.Anon _ -> false));
    Hashtbl.remove t.path_ids path

let predicted_cached t ~path ~page_idx = Pool.contains t.shadow (key t ~path ~idx:page_idx)

let predicted_fraction t ~path ~pages =
  if pages <= 0 then 0.0
  else begin
    let hits = ref 0 in
    for idx = 0 to pages - 1 do
      if predicted_cached t ~path ~page_idx:idx then incr hits
    done;
    float_of_int !hits /. float_of_int pages
  end

let order_files t ~paths =
  List.map
    (fun (path, size) ->
      (path, predicted_fraction t ~path ~pages:((size + page - 1) / page)))
    paths
  |> List.stable_sort (fun (_, a) (_, b) -> compare b a)
  |> List.map fst
