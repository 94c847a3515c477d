(* Temporary directories for the test suites.  Everything made here is
   removed with its contents: a scoped directory on every exit path of
   its scope, a suite-wide one when the test process exits. *)

(** [with_dir k] — [k] on a fresh empty directory, removed afterwards. *)
let with_dir k = Driver.with_data_dir None k

(** A fresh directory shared by a whole suite (the native binary cache),
    removed at exit. *)
let suite_dir () =
  let d = Filename.temp_file "mmsuite" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  at_exit (fun () -> Driver.remove_tree d);
  d
