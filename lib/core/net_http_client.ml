include Uhttp.Client.Make (Netstack.Device.Tcp)
