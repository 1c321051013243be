external ( = ) : int -> int -> bool = "%equal"
external ( <> ) : int -> int -> bool = "%notequal"
external compare : int -> int -> int = "%compare"

module Hashtbl = struct
  include Stdlib.Hashtbl

  let hash (x : int) = Stdlib.Hashtbl.hash x
end

module Random = Stdlib.Random
module Obj = Stdlib.Obj

module Sys = struct
  include Stdlib.Sys

  let time = Stdlib.Sys.time
end

module Stdlib = struct
  include (
    Stdlib :
      module type of struct
        include Stdlib
      end
      with module Hashtbl := Stdlib.Hashtbl
       and module Random := Stdlib.Random
       and module Obj := Stdlib.Obj
       and module Sys := Stdlib.Sys)

  external ( = ) : int -> int -> bool = "%equal"
  external ( <> ) : int -> int -> bool = "%notequal"
  external compare : int -> int -> int = "%compare"

  module Hashtbl = Hashtbl
  module Random = Random
  module Obj = Obj
  module Sys = Sys
end
