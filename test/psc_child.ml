(* [psc] children of the test executable, run from the binary dune builds
   beside it (the test stanza depends on ../bin/psc.exe). *)

let exe = Filename.concat (Filename.dirname Sys.executable_name) "../bin/psc.exe"

(* a [psc args] child on a kernel-chosen port, stdin and stdout on
   /dev/null: its first stderr line announces the address, read back as
   the line's first HOST:PORT word *)
let spawn args =
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) null null err_w in
  Unix.close null;
  Unix.close err_w;
  let ic = Unix.in_channel_of_descr err_r in
  let name = "psc " ^ List.hd args in
  match input_line ic with
  | exception End_of_file -> Alcotest.fail (name ^ " died before listening")
  | line -> (
      match
        List.find_map
          (fun w -> Result.to_option (Psph_net.Addr.parse w))
          (String.split_on_char ' ' line)
      with
      | Some addr -> (pid, ic, addr)
      | None -> Alcotest.fail (name ^ " announced no address: " ^ line))

(* SIGTERM the child and reap it: its exit status *)
let stop (pid, ic, _) =
  Unix.kill pid Sys.sigterm;
  let status = snd (Unix.waitpid [] pid) in
  close_in ic;
  status

(* a [psc args] child run to completion, stdin and stdout on /dev/null:
   its exit status and all it wrote to stderr *)
let run args =
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) null null err_w in
  Unix.close null;
  Unix.close err_w;
  let ic = Unix.in_channel_of_descr err_r in
  let err = In_channel.input_all ic in
  close_in ic;
  (snd (Unix.waitpid [] pid), err)
