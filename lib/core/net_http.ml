include Uhttp.Server.Make (Netstack.Device.Tcp)
