(* [Os_intf.S] over [Os_sim], recording one host-clock span per syscall.

   Each call is the matching [Os_sim] call between two boundary events;
   the wrapper adds no syscall, no RNG draw and no clock advance, so a
   workload instantiated over it simulates exactly what it simulates over
   [Os_sim] (the benchmark's tests check this).  Pages covered are the
   4 KB pages a read or write transfer touches, or the count passed to
   [touch_pages]. *)

open Graybox_core

let name = "sim-traced"

type env = Os_sim.env
type fd = Os_sim.fd
type region = Os_sim.region

let page = 4096
let none _ = 0

let k name = Spans.kind_of_name name
let k_read = k "read"
let k_write = k "write"
let k_touch = k "touch_pages"
let k_create = k "create"
let k_unlink = k "unlink"
let k_rename = k "rename"
let k_stat = k "stat"
let k_mkdir = k "mkdir"
let k_readdir = k "readdir"
let k_utimes = k "utimes"
let k_open = k "open"
let k_close = k "close"
let k_file_size = k "file_size"
let k_fsync = k "fsync"
let k_sync = k "sync"
let k_write_blob = k "write_blob"
let k_read_blob = k "read_blob"
let k_valloc = k "valloc"
let k_vfree = k "vfree"
let k_vrelease = k "vrelease"
let k_vmstat = k "vmstat"
let k_compute = k "compute"
let k_sleep = k "sleep"

let call env kind ?(pages = none) f =
  Spans.syscall ~ctx:(Os_sim.pid env) ~kind ~pages f

(* Pages spanned by [len] bytes transferred from [off]. *)
let pages_of ~off = function
  | Ok n when n > 0 -> ((off + n - 1) / page) - (off / page) + 1
  | Ok _ | Error _ -> 0

let gettime = Os_sim.gettime
let timing_confidence_cap = Os_sim.timing_confidence_cap

(* [sleep_ns] takes no env.  Fibers only switch inside syscalls, and each
   syscall return is a boundary event of the resumed process, so the
   context of this domain's latest event is the caller. *)
let sleep_ns ns =
  Spans.syscall ~ctx:(Spans.last_ctx ()) ~kind:k_sleep ~pages:none (fun () ->
      Os_sim.sleep_ns ns)

let open_file env path = call env k_open (fun () -> Os_sim.open_file env path)
let create_file env path = call env k_create (fun () -> Os_sim.create_file env path)
let close env fd = call env k_close (fun () -> Os_sim.close env fd)

let read env fd ~off ~len =
  call env k_read ~pages:(pages_of ~off) (fun () -> Os_sim.read env fd ~off ~len)

let write env fd ~off ~len =
  call env k_write ~pages:(pages_of ~off) (fun () -> Os_sim.write env fd ~off ~len)

let file_size env fd = call env k_file_size (fun () -> Os_sim.file_size env fd)
let mkdir env path = call env k_mkdir (fun () -> Os_sim.mkdir env path)
let unlink env path = call env k_unlink (fun () -> Os_sim.unlink env path)
let rename env ~src ~dst = call env k_rename (fun () -> Os_sim.rename env ~src ~dst)
let readdir env path = call env k_readdir (fun () -> Os_sim.readdir env path)
let stat env path = call env k_stat (fun () -> Os_sim.stat env path)

let utimes env path ~atime ~mtime =
  call env k_utimes (fun () -> Os_sim.utimes env path ~atime ~mtime)

let fsync env fd = call env k_fsync (fun () -> Os_sim.fsync env fd)
let sync env = call env k_sync (fun () -> Os_sim.sync env)
let write_blob env fd s = call env k_write_blob (fun () -> Os_sim.write_blob env fd s)
let read_blob env fd = call env k_read_blob (fun () -> Os_sim.read_blob env fd)
let durability_on = Os_sim.durability_on
let valloc env ~pages = call env k_valloc (fun () -> Os_sim.valloc env ~pages)
let vfree env r = call env k_vfree (fun () -> Os_sim.vfree env r)

let vrelease env r ~first ~count =
  call env k_vrelease (fun () -> Os_sim.vrelease env r ~first ~count)

let touch_pages env r ~first ~count =
  call env k_touch ~pages:(fun _ -> count) (fun () -> Os_sim.touch_pages env r ~first ~count)

let vmstat env = call env k_vmstat (fun () -> Os_sim.vmstat env)
let compute env ~ns = call env k_compute (fun () -> Os_sim.compute env ~ns)

let compute_bytes env ~bytes ~ns_per_byte =
  call env k_compute (fun () -> Os_sim.compute_bytes env ~bytes ~ns_per_byte)

let pid = Os_sim.pid
let flight = Os_sim.flight
